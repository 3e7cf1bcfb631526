//! The MPP simulator: the one [`rules::Simulator`] over an
//! [`MppInstance`].
//!
//! Schedulers drive an [`MppSimulator`]: each call applies one rule to
//! the live configuration (rejecting illegal moves immediately, with the
//! violation) and logs it, and `finish` checks terminality and returns
//! the strategy plus its cost. This guarantees every scheduler in
//! `rbp-schedulers` emits only rule-conforming strategies — the strategy
//! can still be re-validated independently with [`crate::validate_mpp`].

use crate::rules::{self, Run};
use crate::{Cost, MppInstance, MppMove};

/// A live MPP game that accumulates a strategy.
pub type MppSimulator<'a> = rules::Simulator<MppInstance<'a>>;

/// A finished, validated run.
pub type MppRun = Run<MppMove, Cost>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MppErrorKind;
    use rbp_dag::{dag_from_edges, NodeId};

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
