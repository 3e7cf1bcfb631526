//! The pebbling rules, written once.
//!
//! The paper's games are one rule family: MPP's batched R1-M..R4-M over
//! shaded selections, SPP as its one-processor case with the §3.1
//! restrictions, and `rbp-hier`'s extra green store/load pair. [`apply`]
//! checks one move of any of them against a [`PebbleStore`], changing
//! the store only when every precondition holds, and [`bare_sink`] is
//! their one terminality check. A [`Game`] carries the parameters, all
//! existing instance fields; a game's move type reaches the kernel as a
//! [`Rule`] and a shaded selection through [`Move`], and is built back
//! from them by [`Move::from_rule`].
//!
//! Each game's instance type implements [`Instance`]: its move, store,
//! cost and error types, its [`Game`], its initial configuration and
//! its cost tally. Over that, the one replay loop ([`replay`]) runs a
//! strategy from any validated configuration, the one validator
//! ([`validate`]) is that loop from the initial configuration plus
//! terminality, and the one [`Simulator`] builds a strategy move by
//! move; every game's validator and simulator is these, and `StreamSim`
//! checks its moves through [`apply`] as well.

use rbp_dag::{Dag, HybridNodeSet, NodeId, NodeSet};

use crate::{MppInstance, ProcId, SppInstance, SppVariant};

/// The rule one move applies. Batched rules act on a shaded selection;
/// removals on a one-entry selection whose processor only matters for
/// [`Rule::RemoveRed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// Batched compute.
    Compute,
    /// Batched blue load.
    Load,
    /// Batched blue store.
    Store,
    /// Batched green load.
    LoadGreen,
    /// Batched green store.
    StoreGreen,
    /// Removal of a red pebble.
    RemoveRed,
    /// Removal of a green pebble.
    RemoveGreen,
    /// Removal of a blue pebble.
    RemoveBlue,
}

/// What the rules read of an instance: `green_cap` is 0 outside the
/// three-level game and `variant` the base game outside SPP.
#[derive(Debug, Clone, Copy)]
pub struct Game<'a> {
    /// The computational DAG.
    pub dag: &'a Dag,
    /// Number of processors (1 in SPP).
    pub k: usize,
    /// Red capacity per processor.
    pub r: usize,
    /// Green capacity.
    pub green_cap: usize,
    /// SPP restrictions and boundary convention.
    pub variant: SppVariant,
}

impl<'a> Game<'a> {
    /// `k` processors of red capacity `r`: no green tier, base variant.
    #[must_use]
    pub fn new(dag: &'a Dag, k: usize, r: usize) -> Self {
        let (green_cap, variant) = (0, SppVariant::base());
        Game {
            dag,
            k,
            r,
            green_cap,
            variant,
        }
    }

    /// The two-level game of `instance`.
    #[must_use]
    pub fn mpp(instance: &MppInstance<'a>) -> Self {
        Game::new(instance.dag, instance.k, instance.r)
    }

    /// The single-processor game of `instance`.
    #[must_use]
    pub fn spp(instance: &SppInstance<'a>) -> Self {
        let variant = instance.variant;
        Game {
            variant,
            ..Game::new(instance.dag, 1, instance.r)
        }
    }
}

/// A broken precondition; each game reports it as its own error kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Violation {
    /// The selection is empty.
    EmptySelection,
    /// A processor index is `≥ k`.
    BadProcessor(ProcId),
    /// A processor appears twice in one selection.
    DuplicateProcessor(ProcId),
    /// A vertex appears twice in one load or store selection.
    DuplicateVertex(NodeId),
    /// `(rule, proc, node)`: a store (blue or green) without the
    /// processor's red pebble.
    StoreWithoutRed(Rule, ProcId, NodeId),
    /// `(rule, node)`: a load (blue or green) of a node without a pebble
    /// of that colour.
    LoadWithoutSource(Rule, NodeId),
    /// `(proc, node, missing)`: an input lacks a red pebble of the shade.
    MissingInput(ProcId, NodeId, NodeId),
    /// `(proc, node, r)`: the new red pebble would exceed capacity `r`.
    MemoryExceeded(ProcId, NodeId, usize),
    /// A green store would exceed the green capacity (the payload).
    GreenCapacityExceeded(usize),
    /// The node already holds the pebble being placed.
    AlreadyPebbled(NodeId),
    /// `(rule, proc, node)`: a removal of a pebble that is not there.
    RemoveAbsent(Rule, ProcId, NodeId),
    /// A removal in the no-deletion variant.
    DeletionForbidden(NodeId),
    /// A second compute of a node in the one-shot variant.
    RecomputationForbidden(NodeId),
    /// A compute of a source under the Hong–Kung convention.
    SourceNotComputable(NodeId),
    /// A sink ends the game without the pebble it needs.
    NotTerminal(NodeId),
}

/// A node set the rules query and update: the dense [`NodeSet`], or the
/// [`HybridNodeSet`] the streaming tier keeps red pebbles in.
pub trait PebbleSet {
    /// Whether `v` holds a pebble.
    fn contains(&self, v: NodeId) -> bool;
    /// Number of pebbles.
    fn count(&self) -> usize;
    /// Places a pebble on `v`; whether it was absent.
    fn insert(&mut self, v: NodeId) -> bool;
    /// Lifts the pebble off `v`; whether it was present.
    fn remove(&mut self, v: NodeId) -> bool;
}

macro_rules! forward_pebble_set {
    ($($set:ty),*) => {$(
        impl PebbleSet for $set {
            #[inline]
            fn contains(&self, v: NodeId) -> bool {
                <$set>::contains(self, v)
            }
            #[inline]
            fn count(&self) -> usize {
                self.len()
            }
            #[inline]
            fn insert(&mut self, v: NodeId) -> bool {
                <$set>::insert(self, v)
            }
            #[inline]
            fn remove(&mut self, v: NodeId) -> bool {
                <$set>::remove(self, v)
            }
        }
    )*};
}

forward_pebble_set!(NodeSet, HybridNodeSet);

/// The pebble sets of one configuration: `(reds, blue, green,
/// computed)` — a red set per processor, the blue set, and the green
/// and ever-computed sets where the configuration keeps them.
pub type Sets<'a, R> = (
    &'a mut [R],
    &'a mut NodeSet,
    Option<&'a mut NodeSet>,
    Option<&'a mut NodeSet>,
);

/// A configuration the rules check and update.
pub trait PebbleStore {
    /// Red set type.
    type Red: PebbleSet;
    /// The configuration's sets.
    fn sets(&mut self) -> Sets<'_, Self::Red>;
}

/// A game's move type: the rule it applies and its shaded selection.
pub trait Move {
    /// Calls `f` with the move's rule and selection; a removal passes one
    /// entry, with processor 0 unless it removes a red pebble.
    fn with_rule<T>(&self, f: impl FnOnce(Rule, &[(ProcId, NodeId)]) -> T) -> T;
    /// The move applying `rule` to `sel`, the inverse of
    /// [`Move::with_rule`]: a removal reads the one entry.
    ///
    /// # Panics
    /// On a rule the game does not have, or an empty selection where the
    /// move names one node.
    fn from_rule(rule: Rule, sel: Vec<(ProcId, NodeId)>) -> Self;
}

/// Applies `rule` to the selection `sel` if every precondition holds in
/// `game`; otherwise reports the first broken one and leaves `store` as
/// it was. Allocation-free, and the only place the rules are checked.
///
/// Order: the selection (non-empty; for batched rules, processors below
/// `k`, none twice, no vertex twice outside a compute), then per entry
/// the source pebble, redundancy and capacity; a compute checks the
/// one-shot and Hong–Kung restrictions before its inputs, a removal the
/// no-deletion restriction first, and a green store its capacity last.
///
/// # Errors
/// The first [`Violation`] in that order.
// Inlined everywhere: the streaming simulator's per-rule methods pass a
// constant `rule`, so the dispatch folds away as in a hand-specialized
// checker, and the validators call it once per move.
#[inline(always)]
pub fn apply<S: PebbleStore>(
    game: &Game,
    store: &mut S,
    rule: Rule,
    sel: &[(ProcId, NodeId)],
) -> Result<(), Violation> {
    use Violation as V;
    let (reds, blue, mut green, computed) = store.sets();
    let shape = |distinct_vertices: bool| {
        for (i, &(p, v)) in sel.iter().enumerate() {
            if p >= game.k {
                return Err(V::BadProcessor(p));
            }
            for &(p2, v2) in &sel[..i] {
                if p2 == p {
                    return Err(V::DuplicateProcessor(p));
                }
                if distinct_vertices && v2 == v {
                    return Err(V::DuplicateVertex(v));
                }
            }
        }
        Ok(())
    };
    if sel.is_empty() {
        return Err(V::EmptySelection);
    }
    match rule {
        Rule::Compute => {
            shape(false)?;
            let once = computed.as_deref().filter(|_| game.variant.one_shot);
            for &(p, v) in sel {
                if reds[p].contains(v) {
                    return Err(V::AlreadyPebbled(v));
                }
                if once.is_some_and(|c| c.contains(v)) {
                    return Err(V::RecomputationForbidden(v));
                }
                if game.variant.sources_start_blue && game.dag.in_degree(v) == 0 {
                    return Err(V::SourceNotComputable(v));
                }
                if let Some(&u) = game.dag.preds(v).iter().find(|&&u| !reds[p].contains(u)) {
                    return Err(V::MissingInput(p, v, u));
                }
                if reds[p].count() >= game.r {
                    return Err(V::MemoryExceeded(p, v, game.r));
                }
            }
            for &(p, v) in sel {
                reds[p].insert(v);
            }
            if let Some(done) = computed {
                sel.iter().for_each(|&(_, v)| _ = done.insert(v));
            }
        }
        Rule::Load | Rule::LoadGreen => {
            shape(true)?;
            let source = match rule {
                Rule::Load => Some(&*blue),
                _ => green.as_deref(),
            };
            for &(p, v) in sel {
                if !source.is_some_and(|s| s.contains(v)) {
                    return Err(V::LoadWithoutSource(rule, v));
                }
                if reds[p].contains(v) {
                    return Err(V::AlreadyPebbled(v));
                }
                if reds[p].count() >= game.r {
                    return Err(V::MemoryExceeded(p, v, game.r));
                }
            }
            for &(p, v) in sel {
                reds[p].insert(v);
            }
        }
        Rule::Store | Rule::StoreGreen => {
            shape(true)?;
            let target = match rule {
                Rule::Store => Some(blue),
                _ => green,
            };
            for &(p, v) in sel {
                if !reds[p].contains(v) {
                    return Err(V::StoreWithoutRed(rule, p, v));
                }
                if target.as_deref().is_some_and(|t| t.contains(v)) {
                    return Err(V::AlreadyPebbled(v));
                }
            }
            // Batch vertices are distinct and none is green yet, so a
            // green store adds `sel.len()` green pebbles. A configuration
            // without a green set has no room at all.
            let Some(target) = target else {
                return Err(V::GreenCapacityExceeded(0));
            };
            if rule == Rule::StoreGreen && target.len() + sel.len() > game.green_cap {
                return Err(V::GreenCapacityExceeded(game.green_cap));
            }
            for &(_, v) in sel {
                target.insert(v);
            }
        }
        Rule::RemoveRed | Rule::RemoveGreen | Rule::RemoveBlue => {
            // Lifting a pebble reports whether it was there, so a lone
            // entry (every move's case) needs no separate presence check.
            let lone = sel.len() == 1;
            for &(p, v) in sel {
                if game.variant.no_delete {
                    return Err(V::DeletionForbidden(v));
                }
                let present = match rule {
                    Rule::RemoveRed if p >= game.k => return Err(V::BadProcessor(p)),
                    _ if lone => true,
                    Rule::RemoveRed => reds[p].contains(v),
                    Rule::RemoveGreen => green.as_deref().is_some_and(|g| g.contains(v)),
                    _ => blue.contains(v),
                };
                if !present {
                    return Err(V::RemoveAbsent(rule, p, v));
                }
            }
            for &(p, v) in sel {
                let lifted = match rule {
                    Rule::RemoveRed => reds[p].remove(v),
                    Rule::RemoveGreen => green.as_deref_mut().is_some_and(|g| g.remove(v)),
                    _ => blue.remove(v),
                };
                if lone && !lifted {
                    return Err(V::RemoveAbsent(rule, p, v));
                }
            }
        }
    }
    Ok(())
}

/// [`apply`] for a game's move; returns the rule it applied.
///
/// # Errors
/// As [`apply`].
#[inline]
pub fn apply_move<S: PebbleStore, M: Move>(
    game: &Game,
    store: &mut S,
    mv: &M,
) -> Result<Rule, Violation> {
    mv.with_rule(|rule, sel| apply(game, store, rule, sel).map(|()| rule))
}

/// The first sink, in node order, without the pebble it needs at the end
/// of the game: any pebble, or a blue one when the variant's sinks need
/// blue. `None` means `store` is terminal. (The store lends its sets
/// mutably; this only reads them.)
#[must_use]
pub fn bare_sink<S: PebbleStore>(game: &Game, store: &mut S) -> Option<NodeId> {
    let (reds, blue, green, _) = store.sets();
    let (dag, any_colour) = (game.dag, !game.variant.sinks_need_blue);
    let holds = |v| {
        blue.contains(v)
            || any_colour
                && (green.as_deref().is_some_and(|g| g.contains(v))
                    || reds.iter().any(|r| r.contains(v)))
    };
    dag.nodes()
        .filter(|&v| dag.out_degree(v) == 0)
        .find(|&v| !holds(v))
}

/// The one validator: replays `moves` from the initial configuration
/// of `instance` through [`replay`], then checks terminality, and
/// returns the cost tally. Each move is borrowed, not cloned.
///
/// # Errors
/// The first violation, with its move's index (`moves.len()` for a bare
/// sink), in the game's own error kind.
pub fn validate<I: Instance>(instance: &I, moves: &[I::Move]) -> Result<I::Cost, InstanceError<I>> {
    let mut store = instance.initial();
    let cost = replay(
        instance,
        &mut store,
        I::Cost::default(),
        0,
        moves,
        |_, _, _| {},
    )?;
    bare_sink(&instance.game(), &mut store).map_or(Ok(cost), |v| {
        Err(StepError {
            step: moves.len(),
            kind: Violation::NotTerminal(v).into(),
        })
    })
}

/// The one replay loop. Applies `moves` to `store` as steps `first`,
/// `first + 1`, … of a strategy, adds each rule's cost to `cost`, and
/// returns the tally; `visit` sees the step index, configuration and
/// tally before each move. [`validate`] runs it from the initial
/// configuration; a caller holding the configuration and tally after a
/// validated prefix resumes it there. Terminality ([`bare_sink`]) is the
/// caller's to check.
///
/// # Errors
/// The first violation, with its step index; `store` is then the
/// configuration before that step.
pub fn replay<'m, I: Instance>(
    instance: &I,
    store: &mut I::Store,
    mut cost: I::Cost,
    first: usize,
    moves: impl IntoIterator<Item = &'m I::Move>,
    mut visit: impl FnMut(usize, &I::Store, I::Cost),
) -> Result<I::Cost, InstanceError<I>>
where
    I::Move: 'm,
{
    let game = instance.game();
    for (step, mv) in (first..).zip(moves) {
        visit(step, store, cost);
        let rule = apply_move(&game, store, mv).map_err(|v| StepError {
            step,
            kind: v.into(),
        })?;
        I::tally(&mut cost, rule);
    }
    Ok(cost)
}

/// A rule violation found while replaying a strategy: the offending
/// move's index (`moves.len()` for terminal-state failures) and what
/// went wrong, in the game's error kind `K`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepError<K> {
    /// Index of the offending move.
    pub step: usize,
    /// What went wrong.
    pub kind: K,
}

impl<K: std::fmt::Debug> std::fmt::Display for StepError<K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "step {}: {:?}", self.step, self.kind)
    }
}

impl<K: std::fmt::Debug> std::error::Error for StepError<K> {}

/// The [`StepError`] of a strategy of `I`'s game.
pub type InstanceError<I> = StepError<<I as Instance>::Kind>;

/// A pebbling strategy: the sequence of rule applications `(t_1, …,
/// t_T)` of one game's move type `M`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Strategy<M> {
    /// The moves, in execution order.
    pub moves: Vec<M>,
}

impl<M> Default for Strategy<M> {
    fn default() -> Self {
        Strategy { moves: Vec::new() }
    }
}

impl<M> Strategy<M> {
    /// Empty strategy.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Strategy from a move list.
    #[must_use]
    pub fn from_moves(moves: Vec<M>) -> Self {
        Strategy { moves }
    }

    /// Number of moves.
    #[must_use]
    pub fn len(&self) -> usize {
        self.moves.len()
    }

    /// Whether there are no moves.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.moves.is_empty()
    }

    /// Appends a move.
    pub fn push(&mut self, m: M) {
        self.moves.push(m);
    }

    /// Validates against `instance` and returns the cost tally.
    ///
    /// # Errors
    /// The first rule violation.
    pub fn validate<I: Instance<Move = M>>(
        &self,
        instance: &I,
    ) -> Result<I::Cost, InstanceError<I>> {
        validate(instance, &self.moves)
    }
}

/// A finished simulator run: the strategy it executed and its cost
/// tally `C`.
#[derive(Debug, Clone)]
pub struct Run<M, C> {
    /// The strategy that was executed.
    pub strategy: Strategy<M>,
    /// Its rule-application tally.
    pub cost: C,
}

/// A game instance: the types and parameters the one [`validate`] and
/// the one [`Simulator`] read.
pub trait Instance {
    /// The game's move type.
    type Move: Move + Clone + std::fmt::Debug;
    /// The game's configuration.
    type Store: PebbleStore + Clone + std::fmt::Debug;
    /// The cost tally of a strategy.
    type Cost: Copy + Default + std::fmt::Debug;
    /// The game's error kind.
    type Kind: From<Violation>;
    /// The parameters the rules read.
    fn game(&self) -> Game<'_>;
    /// The configuration a strategy starts from.
    fn initial(&self) -> Self::Store;
    /// Counts one application of `rule` into `cost`.
    fn tally(cost: &mut Self::Cost, rule: Rule);
}

/// A live game that accumulates a strategy. Each call applies one move
/// to the configuration, or rejects it with its violation and leaves
/// the configuration as it was; [`Simulator::finish`] checks
/// terminality. Schedulers build their strategies through one, so they
/// emit only rule-conforming strategies, which [`validate`] can still
/// check independently.
#[derive(Debug, Clone)]
pub struct Simulator<I: Instance> {
    instance: I,
    config: I::Store,
    moves: Vec<I::Move>,
    cost: I::Cost,
}

impl<I: Instance> Simulator<I> {
    /// Starts a game in the instance's initial configuration.
    #[must_use]
    pub fn new(instance: I) -> Self {
        let config = instance.initial();
        Simulator {
            instance,
            config,
            moves: Vec::new(),
            cost: I::Cost::default(),
        }
    }

    /// The instance being played.
    #[must_use]
    pub fn instance(&self) -> &I {
        &self.instance
    }

    /// The current configuration (read-only).
    #[must_use]
    pub fn config(&self) -> &I::Store {
        &self.config
    }

    /// Cost so far.
    #[must_use]
    pub fn cost(&self) -> I::Cost {
        self.cost
    }

    /// Number of moves so far.
    #[must_use]
    pub fn steps(&self) -> usize {
        self.moves.len()
    }

    fn fail(&self, v: Violation) -> InstanceError<I> {
        StepError {
            step: self.moves.len(),
            kind: v.into(),
        }
    }

    /// Applies one move, or reports the violation without changing state.
    ///
    /// # Errors
    /// The move's first broken precondition.
    pub fn apply(&mut self, mv: I::Move) -> Result<(), InstanceError<I>> {
        let rule =
            apply_move(&self.instance.game(), &mut self.config, &mv).map_err(|v| self.fail(v))?;
        I::tally(&mut self.cost, rule);
        self.moves.push(mv);
        Ok(())
    }

    /// Batch compute.
    pub fn compute(&mut self, batch: Vec<(ProcId, NodeId)>) -> Result<(), InstanceError<I>> {
        self.apply(I::Move::from_rule(Rule::Compute, batch))
    }

    /// Batch blue load.
    pub fn load(&mut self, batch: Vec<(ProcId, NodeId)>) -> Result<(), InstanceError<I>> {
        self.apply(I::Move::from_rule(Rule::Load, batch))
    }

    /// Batch blue store.
    pub fn store(&mut self, batch: Vec<(ProcId, NodeId)>) -> Result<(), InstanceError<I>> {
        self.apply(I::Move::from_rule(Rule::Store, batch))
    }

    /// Removes processor `proc`'s red pebble from `v`.
    pub fn remove_red(&mut self, proc: ProcId, v: NodeId) -> Result<(), InstanceError<I>> {
        self.apply(I::Move::from_rule(Rule::RemoveRed, vec![(proc, v)]))
    }

    /// Removes the blue pebble from `v`.
    pub fn remove_blue(&mut self, v: NodeId) -> Result<(), InstanceError<I>> {
        self.apply(I::Move::from_rule(Rule::RemoveBlue, vec![(0, v)]))
    }

    /// Stores `v` from `proc` only if it has no blue pebble yet; no-op
    /// (and no cost) otherwise. Convenience for schedulers.
    pub fn ensure_stored(&mut self, proc: ProcId, v: NodeId) -> Result<(), InstanceError<I>> {
        if self.config.sets().1.contains(v) {
            return Ok(());
        }
        self.store(vec![(proc, v)])
    }

    /// Checks terminality and returns the finished run.
    pub fn finish(mut self) -> Result<Run<I::Move, I::Cost>, InstanceError<I>> {
        if let Some(sink) = bare_sink(&self.instance.game(), &mut self.config) {
            return Err(self.fail(Violation::NotTerminal(sink)));
        }
        Ok(Run {
            strategy: Strategy::from_moves(self.moves),
            cost: self.cost,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Configuration, SppState};
    use rbp_dag::{dag_from_edges, generators};

    fn v(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn shades_are_isolated_and_terminality_names_the_bare_sink() {
        let dag = generators::chain(2);
        let game = Game::mpp(&MppInstance::new(&dag, 2, 2, 1));
        let mut config = Configuration::initial(&dag, 2);
        apply(&game, &mut config, Rule::Compute, &[(0, v(0))]).unwrap();
        let err = apply(&game, &mut config, Rule::Compute, &[(1, v(1))]);
        assert_eq!(err, Err(Violation::MissingInput(1, v(1), v(0))));
        assert_eq!(bare_sink(&game, &mut config), Some(v(1)));
        assert!(config.computed.contains(v(0)));
    }

    #[test]
    fn a_rejected_batch_changes_nothing() {
        // The second entry overflows processor 1: the first must not land.
        let dag = dag_from_edges(3, &[]);
        let game = Game::mpp(&MppInstance::new(&dag, 2, 1, 1));
        let mut config = Configuration::initial(&dag, 2);
        apply(&game, &mut config, Rule::Compute, &[(1, v(2))]).unwrap();
        let before = config.clone();
        let err = apply(&game, &mut config, Rule::Compute, &[(0, v(0)), (1, v(1))]);
        assert_eq!(err, Err(Violation::MemoryExceeded(1, v(1), 1)));
        assert_eq!(config, before);
    }

    #[test]
    fn a_removal_is_checked_whole_before_any_pebble_lifts() {
        let dag = dag_from_edges(2, &[]);
        let game = Game::mpp(&MppInstance::new(&dag, 1, 2, 1));
        let mut config = Configuration::initial(&dag, 1);
        apply(&game, &mut config, Rule::Compute, &[(0, v(0))]).unwrap();
        let before = config.clone();
        let err = apply(&game, &mut config, Rule::RemoveRed, &[(0, v(0)), (0, v(1))]);
        assert_eq!(err, Err(Violation::RemoveAbsent(Rule::RemoveRed, 0, v(1))));
        assert_eq!(config, before);
        apply(&game, &mut config, Rule::RemoveRed, &[(0, v(0))]).unwrap();
        let err = apply(&game, &mut config, Rule::RemoveRed, &[(0, v(0))]);
        assert_eq!(err, Err(Violation::RemoveAbsent(Rule::RemoveRed, 0, v(0))));
        assert!(config.reds[0].is_empty());
    }

    #[test]
    fn green_rules_without_a_green_set_have_no_room() {
        let dag = dag_from_edges(1, &[]);
        let game = Game {
            green_cap: 2,
            ..Game::mpp(&MppInstance::new(&dag, 1, 1, 1))
        };
        let mut config = Configuration::initial(&dag, 1);
        apply(&game, &mut config, Rule::Compute, &[(0, v(0))]).unwrap();
        let err = apply(&game, &mut config, Rule::StoreGreen, &[(0, v(0))]);
        assert_eq!(err, Err(Violation::GreenCapacityExceeded(0)));
        let err = apply(&game, &mut config, Rule::RemoveGreen, &[(0, v(0))]);
        assert_eq!(
            err,
            Err(Violation::RemoveAbsent(Rule::RemoveGreen, 0, v(0)))
        );
    }

    #[test]
    fn spp_restrictions_are_parameters() {
        let dag = dag_from_edges(2, &[(0, 1)]);
        let hk = SppInstance {
            variant: SppVariant::hong_kung(),
            ..SppInstance::io_only(&dag, 2, 1)
        };
        let mut state = SppState::initial_for(&dag, hk.variant);
        let game = Game::spp(&hk);
        let err = apply(&game, &mut state, Rule::Compute, &[(0, v(0))]);
        assert_eq!(err, Err(Violation::SourceNotComputable(v(0))));
        apply(&game, &mut state, Rule::Load, &[(0, v(0))]).unwrap();
        apply(&game, &mut state, Rule::Compute, &[(0, v(1))]).unwrap();
        // A red sink is not enough when sinks need blue.
        assert_eq!(bare_sink(&game, &mut state), Some(v(1)));
        apply(&game, &mut state, Rule::Store, &[(0, v(1))]).unwrap();
        assert_eq!(bare_sink(&game, &mut state), None);

        let game = Game {
            variant: SppVariant::no_delete(),
            ..game
        };
        let err = apply(&game, &mut state, Rule::RemoveBlue, &[(0, v(0))]);
        assert_eq!(err, Err(Violation::DeletionForbidden(v(0))));
    }
}
