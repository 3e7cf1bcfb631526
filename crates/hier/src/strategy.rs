//! Hierarchical strategy representation and the validator.
//!
//! Moves are checked by `rbp_core::rules`, the rule kernel every game
//! shares, with the instance's green capacity as the only extra
//! parameter: every precondition is checked before any mutation, so an
//! illegal move never corrupts the configuration. This module maps the
//! kernel's violations onto [`HierErrorKind`].

use rbp_core::rules::{self, Game, Instance, Rule, StepError, Strategy, Violation};
use rbp_core::ProcId;
use rbp_dag::NodeId;

use crate::{HierConfiguration, HierCost, HierInstance, HierMove, HierPebble};

/// A three-level pebbling strategy: the sequence of rule applications.
pub type HierStrategy = Strategy<HierMove>;

/// A rule violation found while replaying a hierarchical strategy.
pub type HierError = StepError<HierErrorKind>;

/// The kinds of three-level rule violations. The first eleven mirror
/// the MPP kinds; the last three are new to the green tier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HierErrorKind {
    /// A batch was empty.
    EmptySelection,
    /// A processor index is `≥ k`.
    BadProcessor(ProcId),
    /// The same processor appears twice in one shaded selection.
    DuplicateProcessor(ProcId),
    /// The same vertex appears twice in one I/O batch.
    DuplicateVertex(NodeId),
    /// R1-H: processor `proc` holds no red pebble on `node`.
    StoreWithoutRed {
        /// The storing processor.
        proc: ProcId,
        /// The node it tried to store.
        node: NodeId,
    },
    /// R2-H: `node` holds no blue pebble.
    LoadWithoutBlue(NodeId),
    /// R3-H: an input of `node` lacks a red pebble of `proc`'s shade.
    MissingInput {
        /// The computing processor.
        proc: ProcId,
        /// The node being computed.
        node: NodeId,
        /// The missing input.
        missing: NodeId,
    },
    /// Placing a red pebble would exceed processor `proc`'s capacity.
    MemoryExceeded {
        /// The overflowing processor.
        proc: ProcId,
        /// The capacity.
        r: usize,
    },
    /// Redundant placement (node already holds that exact pebble).
    AlreadyPebbled(NodeId),
    /// R4-H applied to a pebble that is not on the board.
    RemoveAbsent(HierPebble),
    /// After the last move some sink holds no pebble on any level.
    NotTerminal(NodeId),
    /// R5-H: processor `proc` holds no red pebble on `node`.
    GreenStoreWithoutRed {
        /// The storing processor.
        proc: ProcId,
        /// The node it tried to stage into the green tier.
        node: NodeId,
    },
    /// R6-H: `node` holds no green pebble.
    LoadWithoutGreen(NodeId),
    /// R5-H: placing the batch's green pebbles would exceed the shared
    /// green capacity.
    GreenCapacityExceeded {
        /// The shared green-tier capacity.
        cap: usize,
    },
}

impl From<Violation> for HierErrorKind {
    fn from(v: Violation) -> Self {
        match v {
            Violation::EmptySelection => Self::EmptySelection,
            Violation::BadProcessor(p) => Self::BadProcessor(p),
            Violation::DuplicateProcessor(p) => Self::DuplicateProcessor(p),
            Violation::DuplicateVertex(v) => Self::DuplicateVertex(v),
            Violation::StoreWithoutRed(Rule::Store, proc, node) => {
                Self::StoreWithoutRed { proc, node }
            }
            Violation::StoreWithoutRed(_, proc, node) => Self::GreenStoreWithoutRed { proc, node },
            Violation::LoadWithoutSource(Rule::Load, v) => Self::LoadWithoutBlue(v),
            Violation::LoadWithoutSource(_, v) => Self::LoadWithoutGreen(v),
            Violation::MissingInput(proc, node, missing) => Self::MissingInput {
                proc,
                node,
                missing,
            },
            Violation::MemoryExceeded(proc, _, r) => Self::MemoryExceeded { proc, r },
            Violation::GreenCapacityExceeded(cap) => Self::GreenCapacityExceeded { cap },
            Violation::AlreadyPebbled(v) => Self::AlreadyPebbled(v),
            Violation::RemoveAbsent(rule, p, v) => Self::RemoveAbsent(match rule {
                Rule::RemoveRed => HierPebble::Red(p, v),
                Rule::RemoveGreen => HierPebble::Green(v),
                _ => HierPebble::Blue(v),
            }),
            Violation::NotTerminal(v) => Self::NotTerminal(v),
            other => unreachable!("{other:?} cannot arise in the three-level game"),
        }
    }
}

/// Replays `moves` on `instance`, enforcing every rule, the red and
/// green capacity bounds, and terminality. Returns the cost tally.
pub fn validate(instance: &HierInstance, moves: &[HierMove]) -> Result<HierCost, HierError> {
    rules::validate(instance, moves)
}

impl Instance for HierInstance<'_> {
    type Move = HierMove;
    type Store = HierConfiguration;
    type Cost = HierCost;
    type Kind = HierErrorKind;

    fn game(&self) -> Game<'_> {
        HierInstance::game(self)
    }

    fn initial(&self) -> HierConfiguration {
        HierConfiguration::initial(self.dag, self.k)
    }

    fn tally(cost: &mut HierCost, rule: Rule) {
        cost.tally(rule);
    }
}

/// Applies one move to `config` if legal in `instance`, mutating
/// `config` only on success. Public so strategy transformers and the
/// simulator share the single replay primitive.
pub fn apply_move(
    instance: &HierInstance,
    config: &mut HierConfiguration,
    mv: &HierMove,
) -> Result<(), HierErrorKind> {
    rules::apply_move(&instance.game(), config, mv)
        .map(drop)
        .map_err(Into::into)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn green_staging_validates() {
        // Proc 0 computes 0, stages it through green, proc 1 picks it
        // up and computes 1 — the cheap-communication path.
        let d = rbp_dag::dag_from_edges(2, &[(0, 1)]);
        let inst = HierInstance::new(&d, 2, 2, 5, 1, 1);
        let cost = validate(
            &inst,
            &[
                HierMove::compute1(0, v(0)),
                HierMove::green_store1(0, v(0)),
                HierMove::green_load1(1, v(0)),
                HierMove::compute1(1, v(1)),
            ],
        )
        .unwrap();
        assert_eq!(cost.green_io_steps(), 2);
        assert_eq!(cost.total(inst.model), 4); // two green steps at cost 1 + two computes
    }

    #[test]
    fn green_capacity_enforced_per_batch() {
        let d = rbp_dag::dag_from_edges(2, &[]);
        let inst = HierInstance::new(&d, 2, 1, 1, 1, 1);
        let err = validate(
            &inst,
            &[
                HierMove::Compute(vec![(0, v(0)), (1, v(1))]),
                HierMove::StoreGreen(vec![(0, v(0)), (1, v(1))]),
            ],
        )
        .unwrap_err();
        assert_eq!(err.kind, HierErrorKind::GreenCapacityExceeded { cap: 1 });
        // A single green store fits.
        validate(
            &inst,
            &[
                HierMove::Compute(vec![(0, v(0)), (1, v(1))]),
                HierMove::green_store1(0, v(0)),
            ],
        )
        .unwrap();
    }

    #[test]
    fn zero_capacity_green_rejects_all_green_stores() {
        let d = rbp_dag::dag_from_edges(1, &[]);
        let inst = HierInstance::new(&d, 1, 1, 1, 0, 1);
        let err = validate(
            &inst,
            &[HierMove::compute1(0, v(0)), HierMove::green_store1(0, v(0))],
        )
        .unwrap_err();
        assert_eq!(err.kind, HierErrorKind::GreenCapacityExceeded { cap: 0 });
    }

    #[test]
    fn green_load_requires_green() {
        let d = rbp_dag::dag_from_edges(1, &[]);
        let inst = HierInstance::new(&d, 1, 1, 1, 1, 1);
        let err = validate(&inst, &[HierMove::green_load1(0, v(0))]).unwrap_err();
        assert_eq!(err.kind, HierErrorKind::LoadWithoutGreen(v(0)));
    }

    #[test]
    fn green_store_requires_own_red() {
        let d = rbp_dag::dag_from_edges(1, &[]);
        let inst = HierInstance::new(&d, 2, 1, 1, 1, 1);
        let err = validate(
            &inst,
            &[HierMove::compute1(0, v(0)), HierMove::green_store1(1, v(0))],
        )
        .unwrap_err();
        assert_eq!(
            err.kind,
            HierErrorKind::GreenStoreWithoutRed {
                proc: 1,
                node: v(0)
            }
        );
    }

    #[test]
    fn illegal_move_leaves_state_unchanged() {
        let d = rbp_dag::dag_from_edges(2, &[(0, 1)]);
        let inst = HierInstance::new(&d, 1, 2, 1, 1, 1);
        let mut config = HierConfiguration::initial(&d, 1);
        assert!(apply_move(&inst, &mut config, &HierMove::compute1(0, v(1))).is_err());
        assert_eq!(config, HierConfiguration::initial(&d, 1));
    }

    #[test]
    fn node_may_be_green_and_blue_simultaneously() {
        let d = rbp_dag::dag_from_edges(1, &[]);
        let inst = HierInstance::new(&d, 1, 1, 1, 1, 1);
        validate(
            &inst,
            &[
                HierMove::compute1(0, v(0)),
                HierMove::green_store1(0, v(0)),
                HierMove::store1(0, v(0)),
            ],
        )
        .unwrap();
    }

    #[test]
    fn remove_green_then_terminality() {
        let d = rbp_dag::dag_from_edges(1, &[]);
        let inst = HierInstance::new(&d, 1, 1, 1, 1, 1);
        let err = validate(
            &inst,
            &[
                HierMove::compute1(0, v(0)),
                HierMove::green_store1(0, v(0)),
                HierMove::Remove(HierPebble::Red(0, v(0))),
                HierMove::Remove(HierPebble::Green(v(0))),
            ],
        )
        .unwrap_err();
        assert_eq!(err.kind, HierErrorKind::NotTerminal(v(0)));
        let err = validate(&inst, &[HierMove::Remove(HierPebble::Green(v(0)))]).unwrap_err();
        assert_eq!(
            err.kind,
            HierErrorKind::RemoveAbsent(HierPebble::Green(v(0)))
        );
    }
}
