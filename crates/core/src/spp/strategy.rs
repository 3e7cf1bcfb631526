//! Strategy representation and the rule-enforcing validator.

use rbp_dag::NodeId;

use crate::rules::{self, Game, Instance, Rule, StepError, Strategy, Violation};
use crate::{Cost, SppInstance, SppMove, SppState};

/// A pebbling strategy: the sequence of rule applications.
pub type SppStrategy = Strategy<SppMove>;

/// A rule violation found while replaying a strategy.
pub type SppError = StepError<SppErrorKind>;

/// The kinds of rule violations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SppErrorKind {
    /// R1-S applied to a node with no blue pebble.
    LoadWithoutBlue(NodeId),
    /// R2-S applied to a node with no red pebble.
    StoreWithoutRed(NodeId),
    /// R3-S applied while some predecessor lacks a red pebble.
    MissingInput {
        /// The node being computed.
        node: NodeId,
        /// A predecessor without a red pebble.
        missing: NodeId,
    },
    /// Placing a red pebble would exceed the capacity `r`.
    MemoryExceeded {
        /// The node that was being pebbled.
        node: NodeId,
        /// The capacity.
        r: usize,
    },
    /// R4-S applied to a node without the pebble being removed.
    RemoveAbsent(NodeId),
    /// R4-S used in the no-deletion variant.
    DeletionForbidden(NodeId),
    /// R3-S applied a second time to the same node in the one-shot variant.
    RecomputationForbidden(NodeId),
    /// R3-S applied to a source node under the `sources_start_blue`
    /// convention (inputs are data, not derivable).
    SourceNotComputable(NodeId),
    /// Redundant placement: the node already holds that pebble. Rejected
    /// to keep strategies canonical (a red-on-red "load" would otherwise
    /// silently waste cost g).
    AlreadyPebbled(NodeId),
    /// After the last move some sink holds no pebble.
    NotTerminal(NodeId),
}

impl From<Violation> for SppErrorKind {
    fn from(v: Violation) -> Self {
        match v {
            Violation::LoadWithoutSource(_, v) => Self::LoadWithoutBlue(v),
            Violation::StoreWithoutRed(_, _, v) => Self::StoreWithoutRed(v),
            Violation::MissingInput(_, node, missing) => Self::MissingInput { node, missing },
            Violation::MemoryExceeded(_, node, r) => Self::MemoryExceeded { node, r },
            Violation::RemoveAbsent(_, _, v) => Self::RemoveAbsent(v),
            Violation::DeletionForbidden(v) => Self::DeletionForbidden(v),
            Violation::RecomputationForbidden(v) => Self::RecomputationForbidden(v),
            Violation::SourceNotComputable(v) => Self::SourceNotComputable(v),
            Violation::AlreadyPebbled(v) => Self::AlreadyPebbled(v),
            Violation::NotTerminal(v) => Self::NotTerminal(v),
            other => unreachable!("{other:?} cannot arise in the single-processor game"),
        }
    }
}

/// Replays `moves` on `instance`, enforcing every rule, the memory bound,
/// the variant restrictions, and terminality. Returns the cost tally.
pub fn validate(instance: &SppInstance, moves: &[SppMove]) -> Result<Cost, SppError> {
    rules::validate(instance, moves)
}

impl Instance for SppInstance<'_> {
    type Move = SppMove;
    type Store = SppState;
    type Cost = Cost;
    type Kind = SppErrorKind;

    fn game(&self) -> Game<'_> {
        Game::spp(self)
    }

    fn initial(&self) -> SppState {
        SppState::initial_for(self.dag, self.variant)
    }

    fn tally(cost: &mut Cost, rule: Rule) {
        cost.tally(rule);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SppVariant;
    use rbp_dag::dag_from_edges;
    use SppMove::{Compute, Load, RemoveBlue, RemoveRed, Store};

    fn v(i: u32) -> NodeId {
        NodeId(i)
    }

    /// The Figure 1 DAG of the paper: v1..v7 = ids 0..6.
    /// v1,v2 -> v3; (v3',v4 analog) ... here we use the simpler fragment.
    fn join() -> rbp_dag::Dag {
        dag_from_edges(3, &[(0, 2), (1, 2)])
    }

    #[test]
    fn straight_line_compute_validates() {
        let d = join();
        let inst = SppInstance::io_only(&d, 3, 1);
        let cost = validate(&inst, &[Compute(v(0)), Compute(v(1)), Compute(v(2))]).unwrap();
        assert_eq!(
            cost,
            Cost {
                stores: 0,
                loads: 0,
                computes: 3
            }
        );
    }

    #[test]
    fn compute_requires_inputs_red() {
        let d = join();
        let inst = SppInstance::io_only(&d, 3, 1);
        let err = validate(&inst, &[Compute(v(0)), Compute(v(2))]).unwrap_err();
        assert_eq!(err.step, 1);
        assert_eq!(
            err.kind,
            SppErrorKind::MissingInput {
                node: v(2),
                missing: v(1)
            }
        );
    }

    #[test]
    fn memory_bound_enforced() {
        let d = join();
        let inst = SppInstance::io_only(&d, 2, 1);
        let err = validate(&inst, &[Compute(v(0)), Compute(v(1)), Compute(v(2))]).unwrap_err();
        assert_eq!(err.step, 2);
        assert!(matches!(
            err.kind,
            SppErrorKind::MemoryExceeded { r: 2, .. }
        ));
    }

    #[test]
    fn io_round_trip_validates_and_counts() {
        // Compute 0, store it, drop red, recompute path via load.
        let d = dag_from_edges(2, &[(0, 1)]);
        let inst = SppInstance::io_only(&d, 2, 5);
        let cost = validate(
            &inst,
            &[
                Compute(v(0)),
                Store(v(0)),
                RemoveRed(v(0)),
                Load(v(0)),
                Compute(v(1)),
            ],
        )
        .unwrap();
        assert_eq!(
            cost,
            Cost {
                stores: 1,
                loads: 1,
                computes: 2
            }
        );
        assert_eq!(cost.total(inst.model), 10);
    }

    #[test]
    fn load_requires_blue() {
        let d = dag_from_edges(1, &[]);
        let inst = SppInstance::io_only(&d, 1, 1);
        let err = validate(&inst, &[Load(v(0))]).unwrap_err();
        assert_eq!(err.kind, SppErrorKind::LoadWithoutBlue(v(0)));
    }

    #[test]
    fn store_requires_red() {
        let d = dag_from_edges(1, &[]);
        let inst = SppInstance::io_only(&d, 1, 1);
        let err = validate(&inst, &[Store(v(0))]).unwrap_err();
        assert_eq!(err.kind, SppErrorKind::StoreWithoutRed(v(0)));
    }

    #[test]
    fn remove_absent_pebble_rejected() {
        let d = dag_from_edges(1, &[]);
        let inst = SppInstance::io_only(&d, 1, 1);
        assert_eq!(
            validate(&inst, &[RemoveRed(v(0))]).unwrap_err().kind,
            SppErrorKind::RemoveAbsent(v(0))
        );
        assert_eq!(
            validate(&inst, &[RemoveBlue(v(0))]).unwrap_err().kind,
            SppErrorKind::RemoveAbsent(v(0))
        );
    }

    #[test]
    fn terminal_check_failure_names_a_bare_sink() {
        let d = join();
        let inst = SppInstance::io_only(&d, 3, 1);
        let err = validate(&inst, &[Compute(v(0))]).unwrap_err();
        assert_eq!(err.step, 1);
        assert_eq!(err.kind, SppErrorKind::NotTerminal(v(2)));
    }

    #[test]
    fn one_shot_forbids_recompute() {
        let d = dag_from_edges(2, &[(0, 1)]);
        let inst = SppInstance {
            dag: &d,
            r: 2,
            model: crate::CostModel::spp_io_only(1),
            variant: SppVariant::one_shot(),
        };
        let err = validate(
            &inst,
            &[Compute(v(0)), RemoveRed(v(0)), Compute(v(0)), Compute(v(1))],
        )
        .unwrap_err();
        assert_eq!(err.step, 2);
        assert_eq!(err.kind, SppErrorKind::RecomputationForbidden(v(0)));
    }

    #[test]
    fn base_variant_allows_recompute() {
        let d = dag_from_edges(2, &[(0, 1)]);
        let inst = SppInstance::io_only(&d, 2, 1);
        // Recompute 0 after dropping it: legal, and the second compute is
        // what makes the final Compute(1) valid.
        validate(
            &inst,
            &[Compute(v(0)), RemoveRed(v(0)), Compute(v(0)), Compute(v(1))],
        )
        .unwrap();
    }

    #[test]
    fn no_delete_variant_forbids_removal() {
        let d = dag_from_edges(1, &[]);
        let inst = SppInstance {
            dag: &d,
            r: 2,
            model: crate::CostModel::spp_io_only(1),
            variant: SppVariant::no_delete(),
        };
        let err = validate(&inst, &[Compute(v(0)), RemoveRed(v(0))]).unwrap_err();
        assert_eq!(err.kind, SppErrorKind::DeletionForbidden(v(0)));
    }

    #[test]
    fn redundant_placement_rejected() {
        let d = dag_from_edges(1, &[]);
        let inst = SppInstance::io_only(&d, 2, 1);
        assert_eq!(
            validate(&inst, &[Compute(v(0)), Compute(v(0))])
                .unwrap_err()
                .kind,
            SppErrorKind::AlreadyPebbled(v(0))
        );
        assert_eq!(
            validate(&inst, &[Compute(v(0)), Store(v(0)), Store(v(0))])
                .unwrap_err()
                .kind,
            SppErrorKind::AlreadyPebbled(v(0))
        );
    }

    /// A move that breaks two rules at once reports the missing source
    /// pebble, the order the shared rule checker uses for every game.
    #[test]
    fn double_violations_report_the_missing_source_first() {
        let d = dag_from_edges(1, &[]);
        let inst = SppInstance::io_only(&d, 2, 1);
        // v0 is red and not blue: the load is redundant and sourceless.
        assert_eq!(
            validate(&inst, &[Compute(v(0)), Load(v(0))])
                .unwrap_err()
                .kind,
            SppErrorKind::LoadWithoutBlue(v(0))
        );
        // v0 is blue and not red: the store is redundant and sourceless.
        let moves = [Compute(v(0)), Store(v(0)), RemoveRed(v(0)), Store(v(0))];
        assert_eq!(
            validate(&inst, &moves).unwrap_err().kind,
            SppErrorKind::StoreWithoutRed(v(0))
        );
    }

    #[test]
    fn strategy_wrapper_api() {
        let d = dag_from_edges(1, &[]);
        let inst = SppInstance::io_only(&d, 1, 1);
        let mut s = SppStrategy::new();
        assert!(s.is_empty());
        s.push(Compute(v(0)));
        assert_eq!(s.len(), 1);
        assert!(s.validate(&inst).is_ok());
    }

    #[test]
    fn feasibility_threshold() {
        let d = join();
        assert!(!SppInstance::io_only(&d, 2, 1).is_feasible());
        assert!(SppInstance::io_only(&d, 3, 1).is_feasible());
    }
}
