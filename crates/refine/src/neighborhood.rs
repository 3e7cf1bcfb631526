//! The neighborhood model: validity-preserving local moves over MPP
//! strategies, proposed as edits of an incumbent.
//!
//! A *local move* edits a valid strategy's move list a little — swapping
//! adjacent steps, deleting dead I/O, changing an eviction victim,
//! trading a load for a recomputation, re-assigning a batch entry to
//! another processor, or re-batching the whole list. A proposal is a
//! [`Candidate`]: a splice that replaces `remove` moves at `at` with
//! `insert`, so it costs what it changes, not what the strategy weighs.
//!
//! The strategy being edited is an [`Incumbent`]: its moves, its total,
//! and the configuration and cost tally every `stride` moves. Once per
//! acceptance it is replayed through the one replay loop
//! ([`rbp_core::rules::replay`]), from its last checkpoint at or before
//! the edit. [`Neighborhood::check`] resumes that loop at the same
//! kind of checkpoint and replays the
//! incumbent's moves up to it, the inserted moves and the incumbent's
//! suffix, then checks terminality. The prefix it skips is the
//! incumbent's own, already validated, so every move of the candidate
//! is still checked by the rule kernel: an illegal neighbor surfaces as
//! a rejected proposal (counted under `refine.invalid.*`), never as a
//! silently wrong cost.
//!
//! The stride comes from the input: at least 32 moves and at least one
//! configuration's size in words, `(k + 2)·⌈n/64⌉`, so the checkpoints
//! never hold more words than the strategy has moves.
//!
//! Moves are *targeted* rather than blind: generators read the
//! configuration before the edited step where a precondition matters
//! (recomputation needs the inputs red, a victim change needs the new
//! victim on the board), resuming from the same checkpoints, which keeps
//! the share of validator-rejected proposals low. The re-batching
//! proposal is [`rbp_core::batchify`] of the whole list, computed once
//! per incumbent.

use std::cell::OnceCell;

use rbp_core::rules::{self, bare_sink, Game};
use rbp_core::{batchify, Configuration, Cost, MppInstance, MppMove, MppStrategy, Pebble, ProcId};
use rbp_dag::NodeId;
use rbp_util::Rng;

/// The kinds of local moves, used for acceptance accounting
/// (`refine.proposed.<kind>` / `refine.accepted.<kind>` counters).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MoveKind {
    /// Swap two adjacent, independent steps (cost-neutral; unlocks
    /// merges and deletions).
    SwapAdjacent,
    /// Delete one whole step (saves its full rule cost).
    DropStep,
    /// Delete one entry from a multi-entry batch (cost-neutral; the
    /// smaller batch often makes a later step deletable).
    DropEntry,
    /// Re-assign one batch entry to a different processor.
    Reassign,
    /// Replace a single-entry load with a recomputation (saves `g - 1`
    /// when the inputs are already resident).
    Recompute,
    /// Point an eviction at a different resident red pebble.
    ChangeVictim,
    /// Re-run [`rbp_core::batchify`] over the whole strategy.
    Batchify,
    /// Ruin-and-recreate: truncate at a cut point and greedily
    /// reschedule the rest (the large neighborhood; see
    /// [`crate::recreate`]).
    RuinRecreate,
}

impl MoveKind {
    /// All kinds, in a fixed order (for counter registration); a kind's
    /// position here is `kind as usize`.
    pub const ALL: [MoveKind; 8] = [
        MoveKind::SwapAdjacent,
        MoveKind::DropStep,
        MoveKind::DropEntry,
        MoveKind::Reassign,
        MoveKind::Recompute,
        MoveKind::ChangeVictim,
        MoveKind::Batchify,
        MoveKind::RuinRecreate,
    ];

    /// Stable lowercase name used in trace counters.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            MoveKind::SwapAdjacent => "swap_adjacent",
            MoveKind::DropStep => "drop_step",
            MoveKind::DropEntry => "drop_entry",
            MoveKind::Reassign => "reassign",
            MoveKind::Recompute => "recompute",
            MoveKind::ChangeVictim => "change_victim",
            MoveKind::Batchify => "batchify",
            MoveKind::RuinRecreate => "ruin_recreate",
        }
    }
}

/// A proposed neighbor: the incumbent with `remove` moves starting at
/// `at` replaced by `insert`, and the kind of edit that produced it.
/// Candidates are *not* yet known to be valid — run them through
/// [`Neighborhood::check`].
#[derive(Debug, Clone)]
pub struct Candidate {
    /// Which local move produced this neighbor.
    pub kind: MoveKind,
    /// Index of the first replaced move.
    pub at: usize,
    /// How many moves are replaced.
    pub remove: usize,
    /// The moves put in their place.
    pub insert: Vec<MppMove>,
}

impl Candidate {
    /// Replaces the one move at `at` with `mv`.
    fn replace(kind: MoveKind, at: usize, mv: MppMove) -> Self {
        Candidate {
            kind,
            at,
            remove: 1,
            insert: vec![mv],
        }
    }
}

/// A validated strategy being edited: its moves, its total, the
/// configuration and cost tally every `stride` moves, and, once
/// proposed, its re-batched form. Built by [`Neighborhood::incumbent`]
/// and changed only by [`Neighborhood::accept`]; its checkpoints are
/// that neighborhood's, so it is edited and checked there.
#[derive(Debug, Clone)]
pub struct Incumbent {
    strategy: MppStrategy,
    total: u64,
    /// `checkpoints[j]`: the configuration and tally before move
    /// `(j + 1)·stride`, for each such move (before move 0 is the
    /// neighborhood's initial configuration).
    checkpoints: Vec<(Configuration, Cost)>,
    /// `batchify` of the moves when it differs from them.
    batched: OnceCell<Option<Vec<MppMove>>>,
}

impl Incumbent {
    /// The moves.
    #[must_use]
    pub fn moves(&self) -> &[MppMove] {
        &self.strategy.moves
    }

    /// Total cost under the instance model.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }
}

/// Move generator and checker bound to one instance. It owns the
/// scratch configuration candidates are replayed on and counts the moves
/// it replays.
#[derive(Debug)]
pub struct Neighborhood<'a> {
    instance: MppInstance<'a>,
    stride: usize,
    /// The initial configuration: where a replay before the first
    /// checkpoint starts.
    origin: Configuration,
    scratch: Configuration,
    replayed: u64,
}

impl<'a> Neighborhood<'a> {
    /// A neighborhood over strategies for `instance`.
    #[must_use]
    pub fn new(instance: MppInstance<'a>) -> Self {
        let words = (instance.k + 2) * instance.dag.n().div_ceil(64);
        let origin = Configuration::initial(instance.dag, instance.k);
        Neighborhood {
            instance,
            stride: words.max(32),
            scratch: origin.clone(),
            origin,
            replayed: 0,
        }
    }

    /// The instance this neighborhood validates against.
    #[must_use]
    pub fn instance(&self) -> &MppInstance<'a> {
        &self.instance
    }

    /// Moves the rule kernel has applied for this neighborhood so far:
    /// evaluations, checks, incumbent builds and prefix replays.
    #[must_use]
    pub fn replayed_moves(&self) -> u64 {
        self.replayed
    }

    /// Replays `moves` through the rule validator and returns the total
    /// cost, or `None` if the strategy breaks a rule (an invalid
    /// neighbor — rejected, never accepted with a guessed cost). For
    /// whole-strategy transforms; edits go through [`Self::check`].
    #[must_use]
    pub fn evaluate(&mut self, moves: &[MppMove]) -> Option<u64> {
        self.scratch.clone_from(&self.origin);
        self.finish(Cost::zero(), 0, moves, |_, _, _| {})
    }

    /// Replays the candidate from the incumbent's last checkpoint at or
    /// before the edit and returns its total, or `None` if it breaks a
    /// rule.
    ///
    /// # Panics
    /// If the edit reaches past the incumbent's last move.
    #[must_use]
    pub fn check(&mut self, inc: &Incumbent, c: &Candidate) -> Option<u64> {
        let (first, cost) = self.restore(inc, c.at);
        let moves = inc.moves();
        let edited = moves[first..c.at]
            .iter()
            .chain(&c.insert)
            .chain(&moves[c.at + c.remove..]);
        self.finish(cost, first, edited, |_, _, _| {})
    }

    /// Validates `moves` and builds their incumbent, or `None` if they
    /// break a rule.
    #[must_use]
    pub fn incumbent(&mut self, moves: Vec<MppMove>) -> Option<Incumbent> {
        let mut inc = Incumbent {
            strategy: MppStrategy::from_moves(moves),
            total: 0,
            checkpoints: Vec::new(),
            batched: OnceCell::new(),
        };
        self.replay_from(&mut inc, 0)?;
        Some(inc)
    }

    /// Makes the checked candidate `c` the incumbent: splices it in and
    /// replays from the last checkpoint at or before the edit.
    ///
    /// # Panics
    /// If the edited strategy breaks a rule: only a candidate that
    /// [`Self::check`] accepted may be accepted.
    pub fn accept(&mut self, inc: &mut Incumbent, c: Candidate) {
        inc.strategy.moves.splice(c.at..c.at + c.remove, c.insert);
        inc.batched = OnceCell::new();
        self.replay_from(inc, c.at)
            .expect("an accepted candidate was checked");
    }

    /// Proposes one random small neighbor of the incumbent (everything
    /// except the [`MoveKind::RuinRecreate`] large neighborhood, which
    /// needs its own rescheduling pass). Returns `None` when the strategy
    /// is too short to edit or the dice landed on an inapplicable site.
    #[must_use]
    pub fn propose(&mut self, inc: &Incumbent, rng: &mut Rng) -> Option<Candidate> {
        let moves = inc.moves();
        if moves.is_empty() {
            return None;
        }
        match rng.index(7) {
            0 => Self::swap_adjacent(moves, rng),
            1 => Self::drop_step(moves, rng),
            2 => Self::drop_entry(moves, rng),
            3 => self.reassign(moves, rng),
            4 => self.recompute(inc, rng),
            5 => self.change_victim(inc, rng),
            _ => self.batchify_pass(inc),
        }
    }

    /// Swaps `moves[i]` and `moves[i+1]` for a random `i`. Skipped when
    /// the two steps are identical (a no-op neighbor).
    fn swap_adjacent(moves: &[MppMove], rng: &mut Rng) -> Option<Candidate> {
        if moves.len() < 2 {
            return None;
        }
        let i = rng.index(moves.len() - 1);
        if moves[i] == moves[i + 1] {
            return None;
        }
        Some(Candidate {
            kind: MoveKind::SwapAdjacent,
            at: i,
            remove: 2,
            insert: vec![moves[i + 1].clone(), moves[i].clone()],
        })
    }

    /// Deletes one whole step, preferring costed steps (I/O or compute)
    /// whose removal is an immediate saving; removals (free) are also
    /// deletable, which de-clutters the list for other moves.
    fn drop_step(moves: &[MppMove], rng: &mut Rng) -> Option<Candidate> {
        let i = rng.index(moves.len());
        Some(Candidate {
            kind: MoveKind::DropStep,
            at: i,
            remove: 1,
            insert: Vec::new(),
        })
    }

    /// Deletes one entry of a multi-entry batch (the step survives with
    /// the same cost; the dropped pebble movement may unlock a later
    /// [`MoveKind::DropStep`]).
    fn drop_entry(moves: &[MppMove], rng: &mut Rng) -> Option<Candidate> {
        let i = rng.index(moves.len());
        let batch = match &moves[i] {
            MppMove::Store(b) | MppMove::Load(b) | MppMove::Compute(b) if b.len() > 1 => b,
            _ => return None,
        };
        let e = rng.index(batch.len());
        let mut nb = batch.clone();
        nb.remove(e);
        let mv = rebuild(&moves[i], nb);
        Some(Candidate::replace(MoveKind::DropEntry, i, mv))
    }

    /// Re-assigns one batch entry `(p, v)` to a different processor not
    /// already in the batch. Downstream steps still reference the old
    /// shade, so this mostly survives validation when the value's later
    /// uses are shade-independent (stores already made, sink coverage).
    fn reassign(&self, moves: &[MppMove], rng: &mut Rng) -> Option<Candidate> {
        let k = self.instance.k;
        if k < 2 {
            return None;
        }
        let i = rng.index(moves.len());
        let batch = match &moves[i] {
            MppMove::Store(b) | MppMove::Load(b) | MppMove::Compute(b) => b,
            MppMove::Remove(_) => return None,
        };
        let e = rng.index(batch.len());
        let q = rng.index(k);
        if q == batch[e].0 || batch.iter().any(|&(p, _)| p == q) {
            return None;
        }
        let mut nb = batch.clone();
        nb[e].0 = q;
        let mv = rebuild(&moves[i], nb);
        Some(Candidate::replace(MoveKind::Reassign, i, mv))
    }

    /// Replaces a single-entry load `(p, v)` with a compute `(p, v)`
    /// when all of `v`'s inputs are red on `p` at that point. Saves
    /// `g - compute` per hit.
    fn recompute(&mut self, inc: &Incumbent, rng: &mut Rng) -> Option<Candidate> {
        let (dag, model) = (self.instance.dag, self.instance.model);
        if model.g <= model.compute {
            return None;
        }
        let i = rng.index(inc.moves().len());
        let (p, v) = match &inc.moves()[i] {
            MppMove::Load(b) if b.len() == 1 => b[0],
            _ => return None,
        };
        let config = self.config_before(inc, i)?;
        if !dag.preds(v).iter().all(|&u| config.reds[p].contains(u)) {
            return None;
        }
        let mv = MppMove::compute1(p, v);
        Some(Candidate::replace(MoveKind::Recompute, i, mv))
    }

    /// Picks an eviction step `Remove(Red(p, v))` and swaps its victim
    /// for another red pebble resident on `p` at that point.
    /// Cost-neutral, but redirecting evictions is how load/recompute
    /// savings become reachable.
    fn change_victim(&mut self, inc: &Incumbent, rng: &mut Rng) -> Option<Candidate> {
        let i = rng.index(inc.moves().len());
        let (p, v) = match &inc.moves()[i] {
            MppMove::Remove(Pebble::Red(p, v)) => (*p, *v),
            _ => return None,
        };
        let config = self.config_before(inc, i)?;
        let resident: Vec<NodeId> = config.reds[p].iter().filter(|&u| u != v).collect();
        if resident.is_empty() {
            return None;
        }
        let u = resident[rng.index(resident.len())];
        let mv = MppMove::Remove(Pebble::Red(p, u));
        Some(Candidate::replace(MoveKind::ChangeVictim, i, mv))
    }

    /// Re-batches the whole strategy with [`rbp_core::batchify`]. The
    /// pass is pure and idempotent, so it runs once per incumbent; when
    /// it changes anything the result is strictly cheaper, so it is
    /// accepted at once and its cached moves are cloned at most once.
    fn batchify_pass(&self, inc: &Incumbent) -> Option<Candidate> {
        let merged = inc.batched.get_or_init(|| {
            let merged = batchify(&self.instance, &inc.strategy).moves;
            (merged != inc.strategy.moves).then_some(merged)
        });
        Some(Candidate {
            kind: MoveKind::Batchify,
            at: 0,
            remove: inc.moves().len(),
            insert: merged.clone()?,
        })
    }

    /// The configuration before step `i` of the incumbent, resumed from
    /// its last checkpoint at or before `i`; `None` if the prefix is
    /// itself invalid (cannot happen for incumbents, which are always
    /// validated).
    fn config_before(&mut self, inc: &Incumbent, i: usize) -> Option<&Configuration> {
        let (first, cost) = self.restore(inc, i);
        self.resume(cost, first, &inc.moves()[first..i], |_, _, _| {})?;
        Some(&self.scratch)
    }

    /// Resets the scratch configuration to the incumbent's last
    /// checkpoint at or before step `i`; returns that step and its tally.
    fn restore(&mut self, inc: &Incumbent, i: usize) -> (usize, Cost) {
        match (i / self.stride).min(inc.checkpoints.len()) {
            0 => {
                self.scratch.clone_from(&self.origin);
                (0, Cost::zero())
            }
            j => {
                let (config, cost) = &inc.checkpoints[j - 1];
                self.scratch.clone_from(config);
                (j * self.stride, *cost)
            }
        }
    }

    /// Replays `moves` as steps `first, …` on the scratch configuration
    /// (restored to the state before step `first`, with tally `cost`)
    /// and returns the tally, counting the moves and showing `visit`
    /// each step as [`rules::replay`] does.
    fn resume<'m>(
        &mut self,
        cost: Cost,
        first: usize,
        moves: impl IntoIterator<Item = &'m MppMove>,
        mut visit: impl FnMut(usize, &Configuration, Cost),
    ) -> Option<Cost> {
        let replayed = &mut self.replayed;
        let count = |step, config: &Configuration, cost| {
            *replayed += 1;
            visit(step, config, cost);
        };
        rules::replay(&self.instance, &mut self.scratch, cost, first, moves, count).ok()
    }

    /// [`Self::resume`], then the terminality check: the total of a
    /// valid strategy.
    fn finish<'m>(
        &mut self,
        cost: Cost,
        first: usize,
        moves: impl IntoIterator<Item = &'m MppMove>,
        visit: impl FnMut(usize, &Configuration, Cost),
    ) -> Option<u64> {
        let cost = self.resume(cost, first, moves, visit)?;
        let terminal = bare_sink(&Game::mpp(&self.instance), &mut self.scratch).is_none();
        terminal.then(|| cost.total(self.instance.model))
    }

    /// Replays the incumbent from its last checkpoint at or before step
    /// `from`, replacing every later checkpoint, and sets its total;
    /// `None` if it breaks a rule.
    fn replay_from(&mut self, inc: &mut Incumbent, from: usize) -> Option<()> {
        // A deletion can leave a checkpoint at the new end: drop it too.
        let last = inc.moves().len().saturating_sub(1);
        let (first, cost) = self.restore(inc, from.min(last));
        let stride = self.stride;
        inc.checkpoints.truncate(first / stride);
        let checkpoints = &mut inc.checkpoints;
        let keep = |step: usize, config: &Configuration, cost| {
            if step > first && step.is_multiple_of(stride) {
                checkpoints.push((config.clone(), cost));
            }
        };
        inc.total = self.finish(cost, first, &inc.strategy.moves[first..], keep)?;
        Some(())
    }
}

/// Rebuilds a batch move of the same type as `like` around `batch`.
fn rebuild(like: &MppMove, batch: Vec<(ProcId, NodeId)>) -> MppMove {
    match like {
        MppMove::Store(_) => MppMove::Store(batch),
        MppMove::Load(_) => MppMove::Load(batch),
        MppMove::Compute(_) => MppMove::Compute(batch),
        MppMove::Remove(p) => MppMove::Remove(*p),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbp_core::{validate_mpp, MppSimulator};
    use rbp_dag::generators;

    /// Baseline strategy builder (load/compute/store per node) used as a
    /// deliberately slack starting point.
    fn baseline(inst: &MppInstance) -> Vec<MppMove> {
        let dag = inst.dag;
        let mut sim = MppSimulator::new(*inst);
        for (i, &v) in dag.topo().order().iter().enumerate() {
            let p = i % inst.k;
            for &u in dag.preds(v) {
                sim.load(vec![(p, u)]).unwrap();
            }
            sim.compute(vec![(p, v)]).unwrap();
            sim.store(vec![(p, v)]).unwrap();
            for &u in dag.preds(v) {
                sim.remove_red(p, u).unwrap();
            }
            sim.remove_red(p, v).unwrap();
        }
        sim.finish().unwrap().strategy.moves
    }

    /// The candidate's move list, materialized.
    fn materialize(moves: &[MppMove], c: &Candidate) -> Vec<MppMove> {
        let mut out = moves.to_vec();
        out.splice(c.at..c.at + c.remove, c.insert.iter().cloned());
        out
    }

    /// The checkpointed verdict on `c` must be the full validator's:
    /// the same total, or a rejection.
    fn assert_agrees(nb: &mut Neighborhood, inc: &Incumbent, c: &Candidate) -> Option<u64> {
        let checked = nb.check(inc, c);
        let inst = *nb.instance();
        let full = validate_mpp(&inst, &materialize(inc.moves(), c))
            .ok()
            .map(|cost| cost.total(inst.model));
        assert_eq!(checked, full, "{c:?}");
        checked
    }

    /// Edits at the places a checkpointed replay can get wrong: the
    /// first and last moves, around every stride boundary, and the
    /// whole list.
    fn boundary_edits(inc: &Incumbent, stride: usize, inst: &MppInstance) -> Vec<Candidate> {
        let m = inc.moves();
        let len = m.len();
        let mut sites = vec![0, 1, len - 2, len - 1];
        for b in (stride..len).step_by(stride) {
            sites.extend([b - 1, b, b + 1].into_iter().filter(|&i| i < len));
        }
        let mut edits = Vec::new();
        for at in sites {
            // Identity (the kind plays no part in a check), deletion,
            // and a swap with the next move.
            edits.push(Candidate::replace(MoveKind::Reassign, at, m[at].clone()));
            edits.push(Candidate {
                kind: MoveKind::DropStep,
                at,
                remove: 1,
                insert: Vec::new(),
            });
            if at + 1 < len {
                edits.push(Candidate {
                    kind: MoveKind::SwapAdjacent,
                    at,
                    remove: 2,
                    insert: vec![m[at + 1].clone(), m[at].clone()],
                });
            }
        }
        edits.push(Candidate {
            kind: MoveKind::Batchify,
            at: 0,
            remove: len,
            insert: batchify(inst, &MppStrategy::from_moves(m.to_vec())).moves,
        });
        edits
    }

    #[test]
    fn accepted_candidates_always_revalidate() {
        let dag = generators::grid(6, 6);
        for k in [1, 2, 4] {
            let inst = MppInstance::new(&dag, k, 3, 2);
            let mut nb = Neighborhood::new(inst);
            let stride = nb.stride;
            let mut rng = Rng::new(42 + k as u64);
            let mut current = nb.incumbent(baseline(&inst)).unwrap();
            assert!(
                current.moves().len() > 4 * stride,
                "k={k}: spans several strides"
            );
            for c in boundary_edits(&current, stride, &inst) {
                assert_agrees(&mut nb, &current, &c);
            }
            let mut accepted = 0;
            for _ in 0..3000 {
                let Some(c) = nb.propose(&current, &mut rng) else {
                    continue;
                };
                match assert_agrees(&mut nb, &current, &c) {
                    Some(total) if total <= current.total() => {
                        nb.accept(&mut current, c);
                        accepted += 1;
                        // The partial replay leaves what a fresh build would.
                        let fresh = nb.incumbent(current.moves().to_vec()).unwrap();
                        assert_eq!(fresh.total, current.total);
                        assert_eq!(fresh.checkpoints, current.checkpoints);
                    }
                    _ => {}
                }
            }
            assert!(
                accepted > 0,
                "k={k}: neighborhood never produced a valid accept"
            );
            for c in boundary_edits(&current, stride, &inst) {
                assert_agrees(&mut nb, &current, &c);
            }
            // Resuming at a checkpoint reaches the configuration a replay
            // of the whole prefix does.
            let mut sim = MppSimulator::new(inst);
            for (i, mv) in current.moves().iter().enumerate() {
                assert_eq!(
                    nb.config_before(&current, i),
                    Some(sim.config()),
                    "k={k} i={i}"
                );
                sim.apply(mv.clone()).unwrap();
            }
        }
    }

    #[test]
    fn checkpoints_hold_fewer_words_than_the_strategy_has_moves() {
        let dag = generators::grid(100, 100);
        let inst = MppInstance::new(&dag, 2, 3, 2);
        let mut nb = Neighborhood::new(inst);
        let inc = nb.incumbent(baseline(&inst)).unwrap();
        let words: usize = inc
            .checkpoints
            .iter()
            .map(|(c, _)| (c.reds.len() + 2) * c.blue.universe().div_ceil(64))
            .sum();
        assert!(inc.checkpoints.len() > 1, "several checkpoints");
        assert!(
            words <= inc.moves().len(),
            "{words} words for {} moves",
            inc.moves().len()
        );
    }

    #[test]
    fn drop_step_finds_dead_io() {
        // Baseline stores every value; values never loaded again are
        // dead stores the neighborhood must be able to delete.
        let dag = generators::chain(4);
        let inst = MppInstance::new(&dag, 1, 2, 3);
        let mut nb = Neighborhood::new(inst);
        let mut current = nb.incumbent(baseline(&inst)).unwrap();
        let start_total = current.total();
        let mut rng = Rng::new(7);
        for _ in 0..4000 {
            if let Some(c) = nb.propose(&current, &mut rng) {
                if nb.check(&current, &c).is_some_and(|t| t <= current.total()) {
                    nb.accept(&mut current, c);
                }
            }
        }
        // Chain on one processor: only the sink's pebble is needed at
        // the end, so some of the baseline's stores/reloads are dead
        // weight the small moves must be able to shave. (Deleting a
        // store *and* its matching reload is a two-step edit whose
        // halves are individually invalid — that coupled deletion is
        // exactly what the ruin-and-recreate large neighborhood is for,
        // exercised below.)
        assert!(current.total() < start_total, "no dead I/O deleted");
        let rebuilt = crate::recreate::ruin_recreate(&inst, current.moves(), 0, &mut rng).unwrap();
        let total = nb.evaluate(&rebuilt.strategy.moves).unwrap();
        assert_eq!(total, 4, "greedy rebuild leaves only the 4 computes");
    }

    #[test]
    fn recompute_trades_load_for_compute() {
        // Compute v0, store v0, remove v0, load v0, compute v1. The
        // load (g=5) can become a recompute (1) since v0 is a source
        // (no preds).
        let dag = rbp_dag::dag_from_edges(2, &[(0, 1)]);
        let inst = MppInstance::new(&dag, 1, 2, 5);
        let v = |i: u32| NodeId(i);
        let moves = vec![
            MppMove::compute1(0, v(0)),
            MppMove::store1(0, v(0)),
            MppMove::Remove(Pebble::Red(0, v(0))),
            MppMove::load1(0, v(0)),
            MppMove::compute1(0, v(1)),
        ];
        let mut nb = Neighborhood::new(inst);
        let inc = nb.incumbent(moves).unwrap();
        let mut rng = Rng::new(3);
        let mut found = false;
        for _ in 0..200 {
            if let Some(c) = nb.propose(&inc, &mut rng) {
                if c.kind == MoveKind::Recompute {
                    let t = nb.check(&inc, &c).unwrap();
                    assert_eq!(t, inc.total() - 4, "load g=5 became compute 1");
                    found = true;
                    break;
                }
            }
        }
        assert!(found, "recompute move never proposed");
    }

    #[test]
    fn empty_strategy_has_no_neighbors() {
        let dag = rbp_dag::dag_from_edges(0, &[]);
        let inst = MppInstance::new(&dag, 1, 1, 1);
        let mut nb = Neighborhood::new(inst);
        let inc = nb.incumbent(Vec::new()).unwrap();
        let mut rng = Rng::new(1);
        assert!(nb.propose(&inc, &mut rng).is_none());
    }
}
