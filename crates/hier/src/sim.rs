//! The three-level simulator: the one [`rules::Simulator`] over a
//! [`HierInstance`].
//!
//! Green-aware schedulers drive a [`HierSimulator`] exactly as the
//! two-level schedulers drive `MppSimulator`: each call applies one rule
//! to the live configuration (rejecting illegal moves immediately, with
//! the violation) and logs it, and `finish` checks terminality and
//! returns the strategy plus its cost, which can be re-validated
//! independently with [`crate::validate_hier`]. The green rules have no
//! per-rule method: [`rules::Simulator::apply`] takes a [`HierMove`].

use rbp_core::rules::{self, Run};

use crate::{HierCost, HierInstance, HierMove};

/// A live three-level game that accumulates a strategy.
pub type HierSimulator<'a> = rules::Simulator<HierInstance<'a>>;

/// A finished, validated hierarchical run.
pub type HierRun = Run<HierMove, HierCost>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HierErrorKind;
    use rbp_dag::{dag_from_edges, NodeId};

    fn v(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn simulator_replays_like_validator() {
        let d = dag_from_edges(2, &[(0, 1)]);
        let inst = HierInstance::new(&d, 2, 2, 3, 2, 1);
        let mut sim = HierSimulator::new(inst);
        sim.compute(vec![(0, v(0))]).unwrap();
        sim.apply(HierMove::green_store1(0, v(0))).unwrap();
        sim.apply(HierMove::green_load1(1, v(0))).unwrap();
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
}
