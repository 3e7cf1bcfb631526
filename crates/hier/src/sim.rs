//! Step-by-step simulation engine for building hierarchical strategies.
//!
//! Green-aware schedulers drive a [`HierSimulator`] exactly as the
//! two-level schedulers drive `MppSimulator`: each call applies one rule
//! to the live configuration (rejecting illegal moves immediately, with
//! the violation) and logs it. [`HierSimulator::finish`] checks
//! terminality and returns the strategy plus its cost, which can be
//! re-validated independently with [`crate::validate_hier`].

use rbp_core::rules::{self, Run};
use rbp_core::ProcId;
use rbp_dag::NodeId;

use crate::{
    HierConfiguration, HierCost, HierError, HierErrorKind, HierInstance, HierMove, HierPebble,
    HierStrategy,
};

/// A live three-level game that accumulates a strategy.
#[derive(Debug, Clone)]
pub struct HierSimulator<'a> {
    instance: HierInstance<'a>,
    config: HierConfiguration,
    moves: Vec<HierMove>,
    cost: HierCost,
}

/// A finished, validated hierarchical run.
pub type HierRun = Run<HierMove, HierCost>;

impl<'a> HierSimulator<'a> {
    /// Starts a game in the initial (pebble-free) configuration.
    #[must_use]
    pub fn new(instance: HierInstance<'a>) -> Self {
        let config = HierConfiguration::initial(instance.dag, instance.k);
        HierSimulator {
            instance,
            config,
            moves: Vec::new(),
            cost: HierCost::zero(),
        }
    }

    /// The instance being played.
    #[must_use]
    pub fn instance(&self) -> &HierInstance<'a> {
        &self.instance
    }

    /// The current configuration (read-only).
    #[must_use]
    pub fn config(&self) -> &HierConfiguration {
        &self.config
    }

    /// Cost so far.
    #[must_use]
    pub fn cost(&self) -> HierCost {
        self.cost
    }

    /// Number of moves so far.
    #[must_use]
    pub fn steps(&self) -> usize {
        self.moves.len()
    }

    /// Applies one move, or reports the violation without changing
    /// state.
    pub fn apply(&mut self, mv: HierMove) -> Result<(), HierError> {
        let rule =
            rules::apply_move(&self.instance.game(), &mut self.config, &mv).map_err(|v| {
                HierError {
                    step: self.moves.len(),
                    kind: v.into(),
                }
            })?;
        self.cost.tally(rule);
        self.moves.push(mv);
        Ok(())
    }

    /// Batch compute (R3-H).
    pub fn compute(&mut self, batch: Vec<(ProcId, NodeId)>) -> Result<(), HierError> {
        self.apply(HierMove::Compute(batch))
    }

    /// Batch blue load (R2-H).
    pub fn load(&mut self, batch: Vec<(ProcId, NodeId)>) -> Result<(), HierError> {
        self.apply(HierMove::Load(batch))
    }

    /// Batch blue store (R1-H).
    pub fn store(&mut self, batch: Vec<(ProcId, NodeId)>) -> Result<(), HierError> {
        self.apply(HierMove::Store(batch))
    }

    /// Batch green load (R6-H).
    pub fn load_green(&mut self, batch: Vec<(ProcId, NodeId)>) -> Result<(), HierError> {
        self.apply(HierMove::LoadGreen(batch))
    }

    /// Batch green store (R5-H).
    pub fn store_green(&mut self, batch: Vec<(ProcId, NodeId)>) -> Result<(), HierError> {
        self.apply(HierMove::StoreGreen(batch))
    }

    /// Remove a red pebble (R4-H).
    pub fn remove_red(&mut self, proc: ProcId, v: NodeId) -> Result<(), HierError> {
        self.apply(HierMove::Remove(HierPebble::Red(proc, v)))
    }

    /// Remove a green pebble (R4-H).
    pub fn remove_green(&mut self, v: NodeId) -> Result<(), HierError> {
        self.apply(HierMove::Remove(HierPebble::Green(v)))
    }

    /// Remove a blue pebble (R4-H).
    pub fn remove_blue(&mut self, v: NodeId) -> Result<(), HierError> {
        self.apply(HierMove::Remove(HierPebble::Blue(v)))
    }

    /// Persists `v` from `proc`, preferring the cheap green tier:
    /// green-stores if there is room (or `v` is already green), else
    /// blue-stores. No-op if `v` already has a blue pebble and a green
    /// store is impossible. Convenience for schedulers.
    pub fn persist_prefer_green(&mut self, proc: ProcId, v: NodeId) -> Result<(), HierError> {
        if self.config.green.contains(v) {
            return Ok(());
        }
        if self.config.green.len() < self.instance.green_cap
            && self.instance.model.green <= self.instance.model.g
        {
            return self.store_green(vec![(proc, v)]);
        }
        if self.config.blue.contains(v) {
            return Ok(());
        }
        self.store(vec![(proc, v)])
    }

    /// Checks terminality and returns the finished run.
    pub fn finish(mut self) -> Result<HierRun, HierError> {
        if let Some(sink) = rules::bare_sink(&self.instance.game(), &mut self.config) {
            return Err(HierError {
                step: self.moves.len(),
                kind: HierErrorKind::NotTerminal(sink),
            });
        }
        Ok(HierRun {
            strategy: HierStrategy::from_moves(self.moves),
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
        let inst = HierInstance::new(&d, 2, 2, 3, 2, 1);
        let mut sim = HierSimulator::new(inst);
        sim.compute(vec![(0, v(0))]).unwrap();
        sim.store_green(vec![(0, v(0))]).unwrap();
        sim.load_green(vec![(1, v(0))]).unwrap();
        sim.compute(vec![(1, v(1))]).unwrap();
        let run = sim.finish().unwrap();
        assert_eq!(run.cost.green_io_steps(), 2);
        let cost2 = run.strategy.validate(&inst).unwrap();
        assert_eq!(cost2, run.cost);
        assert_eq!(run.cost.total(inst.model), 2 + 2);
    }

    #[test]
    fn illegal_move_keeps_simulator_usable() {
        let d = dag_from_edges(2, &[(0, 1)]);
        let inst = HierInstance::new(&d, 1, 2, 1, 0, 1);
        let mut sim = HierSimulator::new(inst);
        assert!(sim.compute(vec![(0, v(1))]).is_err());
        assert_eq!(sim.steps(), 0);
        sim.compute(vec![(0, v(0))]).unwrap();
        sim.compute(vec![(0, v(1))]).unwrap();
        assert!(sim.finish().is_ok());
    }

    #[test]
    fn finish_rejects_non_terminal() {
        let d = dag_from_edges(2, &[(0, 1)]);
        let inst = HierInstance::new(&d, 1, 2, 1, 1, 1);
        let mut sim = HierSimulator::new(inst);
        sim.compute(vec![(0, v(0))]).unwrap();
        let err = sim.finish().unwrap_err();
        assert_eq!(err.kind, HierErrorKind::NotTerminal(v(1)));
    }

    #[test]
    fn persist_prefers_green_until_full() {
        let d = dag_from_edges(3, &[]);
        let inst = HierInstance::new(&d, 1, 3, 7, 1, 1);
        let mut sim = HierSimulator::new(inst);
        sim.compute(vec![(0, v(0))]).unwrap();
        sim.compute(vec![(0, v(1))]).unwrap();
        sim.persist_prefer_green(0, v(0)).unwrap();
        // Idempotent while green.
        sim.persist_prefer_green(0, v(0)).unwrap();
        // Green full: falls back to blue.
        sim.persist_prefer_green(0, v(1)).unwrap();
        sim.persist_prefer_green(0, v(1)).unwrap();
        sim.compute(vec![(0, v(2))]).unwrap();
        let run = sim.finish().unwrap();
        assert_eq!((run.cost.green_stores, run.cost.stores), (1, 1));
    }

    #[test]
    fn persist_with_zero_cap_goes_blue() {
        let d = dag_from_edges(1, &[]);
        let inst = HierInstance::new(&d, 1, 1, 7, 0, 1);
        let mut sim = HierSimulator::new(inst);
        sim.compute(vec![(0, v(0))]).unwrap();
        sim.persist_prefer_green(0, v(0)).unwrap();
        let run = sim.finish().unwrap();
        assert_eq!((run.cost.green_stores, run.cost.stores), (0, 1));
    }
}
