//! Step-by-step simulation engine for building MPP strategies.
//!
//! Schedulers drive an [`MppSimulator`]: each call applies one rule to
//! the live configuration (rejecting illegal moves immediately, with the
//! violation) and logs it. [`MppSimulator::finish`] checks terminality
//! and returns the strategy plus its cost. This guarantees every
//! scheduler in `rbp-schedulers` emits only rule-conforming strategies —
//! the strategy can still be re-validated independently with
//! [`crate::validate_mpp`].

use rbp_dag::NodeId;

use crate::rules::{self, Game, Run};
use crate::{
    Configuration, Cost, MppError, MppErrorKind, MppInstance, MppMove, MppStrategy, Pebble, ProcId,
};

/// A live MPP game that accumulates a strategy.
#[derive(Debug, Clone)]
pub struct MppSimulator<'a> {
    instance: MppInstance<'a>,
    config: Configuration,
    moves: Vec<MppMove>,
    cost: Cost,
}

/// A finished, validated run.
pub type MppRun = Run<MppMove, Cost>;

impl<'a> MppSimulator<'a> {
    /// Starts a game in the initial configuration.
    #[must_use]
    pub fn new(instance: MppInstance<'a>) -> Self {
        let config = Configuration::initial(instance.dag, instance.k);
        MppSimulator {
            instance,
            config,
            moves: Vec::new(),
            cost: Cost::zero(),
        }
    }

    /// The instance being played.
    #[must_use]
    pub fn instance(&self) -> &MppInstance<'a> {
        &self.instance
    }

    /// The current configuration (read-only).
    #[must_use]
    pub fn config(&self) -> &Configuration {
        &self.config
    }

    /// Cost so far.
    #[must_use]
    pub fn cost(&self) -> Cost {
        self.cost
    }

    /// Number of moves so far.
    #[must_use]
    pub fn steps(&self) -> usize {
        self.moves.len()
    }

    /// Applies one move, or reports the violation without changing state.
    pub fn apply(&mut self, mv: MppMove) -> Result<(), MppError> {
        let rule =
            rules::apply_move(&Game::mpp(&self.instance), &mut self.config, &mv).map_err(|v| {
                MppError {
                    step: self.moves.len(),
                    kind: v.into(),
                }
            })?;
        self.cost.tally(rule);
        self.moves.push(mv);
        Ok(())
    }

    /// Batch compute (R3-M).
    pub fn compute(&mut self, batch: Vec<(ProcId, NodeId)>) -> Result<(), MppError> {
        self.apply(MppMove::Compute(batch))
    }

    /// Batch load (R2-M).
    pub fn load(&mut self, batch: Vec<(ProcId, NodeId)>) -> Result<(), MppError> {
        self.apply(MppMove::Load(batch))
    }

    /// Batch store (R1-M).
    pub fn store(&mut self, batch: Vec<(ProcId, NodeId)>) -> Result<(), MppError> {
        self.apply(MppMove::Store(batch))
    }

    /// Remove a red pebble (R4-M).
    pub fn remove_red(&mut self, proc: ProcId, v: NodeId) -> Result<(), MppError> {
        self.apply(MppMove::Remove(Pebble::Red(proc, v)))
    }

    /// Remove a blue pebble (R4-M).
    pub fn remove_blue(&mut self, v: NodeId) -> Result<(), MppError> {
        self.apply(MppMove::Remove(Pebble::Blue(v)))
    }

    /// Stores `v` from `proc` only if it has no blue pebble yet; no-op
    /// (and no cost) otherwise. Convenience for schedulers.
    pub fn ensure_stored(&mut self, proc: ProcId, v: NodeId) -> Result<(), MppError> {
        if self.config.blue.contains(v) {
            return Ok(());
        }
        self.store(vec![(proc, v)])
    }

    /// Checks terminality and returns the finished run.
    pub fn finish(mut self) -> Result<MppRun, MppError> {
        if let Some(sink) = rules::bare_sink(&Game::mpp(&self.instance), &mut self.config) {
            return Err(MppError {
                step: self.moves.len(),
                kind: MppErrorKind::NotTerminal(sink),
            });
        }
        Ok(MppRun {
            strategy: MppStrategy::from_moves(self.moves),
            cost: self.cost,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbp_dag::dag_from_edges;

    fn v(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn simulator_replays_like_validator() {
        let d = dag_from_edges(2, &[(0, 1)]);
        let inst = MppInstance::new(&d, 2, 2, 3);
        let mut sim = MppSimulator::new(inst);
        sim.compute(vec![(0, v(0))]).unwrap();
        sim.store(vec![(0, v(0))]).unwrap();
        sim.load(vec![(1, v(0))]).unwrap();
        sim.compute(vec![(1, v(1))]).unwrap();
        let run = sim.finish().unwrap();
        assert_eq!(run.cost.io_steps(), 2);
        // Independent re-validation agrees.
        let cost2 = run.strategy.validate(&inst).unwrap();
        assert_eq!(cost2, run.cost);
    }

    #[test]
    fn illegal_move_leaves_state_unchanged() {
        let d = dag_from_edges(2, &[(0, 1)]);
        let inst = MppInstance::new(&d, 1, 2, 1);
        let mut sim = MppSimulator::new(inst);
        assert!(sim.compute(vec![(0, v(1))]).is_err());
        assert_eq!(sim.steps(), 0);
        // Still able to proceed correctly.
        sim.compute(vec![(0, v(0))]).unwrap();
        sim.compute(vec![(0, v(1))]).unwrap();
        assert!(sim.finish().is_ok());
    }

    #[test]
    fn finish_rejects_non_terminal() {
        let d = dag_from_edges(2, &[(0, 1)]);
        let inst = MppInstance::new(&d, 1, 2, 1);
        let mut sim = MppSimulator::new(inst);
        sim.compute(vec![(0, v(0))]).unwrap();
        let err = sim.finish().unwrap_err();
        assert_eq!(err.kind, MppErrorKind::NotTerminal(v(1)));
    }

    #[test]
    fn ensure_stored_is_idempotent() {
        let d = dag_from_edges(1, &[]);
        let inst = MppInstance::new(&d, 1, 1, 7);
        let mut sim = MppSimulator::new(inst);
        sim.compute(vec![(0, v(0))]).unwrap();
        sim.ensure_stored(0, v(0)).unwrap();
        sim.ensure_stored(0, v(0)).unwrap();
        assert_eq!(sim.cost().stores, 1);
    }

    #[test]
    fn remove_red_frees_capacity() {
        let d = dag_from_edges(2, &[]);
        let inst = MppInstance::new(&d, 1, 1, 1);
        let mut sim = MppSimulator::new(inst);
        sim.compute(vec![(0, v(0))]).unwrap();
        sim.store(vec![(0, v(0))]).unwrap();
        sim.remove_red(0, v(0)).unwrap();
        sim.compute(vec![(0, v(1))]).unwrap();
        let run = sim.finish().unwrap();
        assert_eq!(run.cost.stores, 1);
    }
}
