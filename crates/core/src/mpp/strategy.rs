//! MPP strategy representation and the rule-enforcing validator.

use rbp_dag::NodeId;

use crate::rules::{self, Game, Instance, Rule, StepError, Strategy, Violation};
use crate::{Configuration, Cost, MppInstance, MppMove, Pebble, ProcId};

/// An MPP pebbling strategy: the sequence of rule applications
/// `(t_1, …, t_T)`.
pub type MppStrategy = Strategy<MppMove>;

/// A rule violation found while replaying an MPP strategy.
pub type MppError = StepError<MppErrorKind>;

/// The kinds of MPP rule violations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MppErrorKind {
    /// A batch was empty.
    EmptySelection,
    /// A processor index is `≥ k`.
    BadProcessor(ProcId),
    /// The same processor appears twice in one shaded selection
    /// (selections are injective).
    DuplicateProcessor(ProcId),
    /// The same vertex appears twice in one R1-M/R2-M batch (the rule's
    /// set semantics make blue-side vertices distinct).
    DuplicateVertex(NodeId),
    /// R1-M: processor `proc` holds no red pebble on `node`.
    StoreWithoutRed {
        /// The storing processor.
        proc: ProcId,
        /// The node it tried to store.
        node: NodeId,
    },
    /// R2-M: `node` holds no blue pebble.
    LoadWithoutBlue(NodeId),
    /// R3-M: an input of `node` lacks a red pebble of `proc`'s shade.
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
    /// R4-M applied to a pebble that is not on the board.
    RemoveAbsent(Pebble),
    /// After the last move some sink holds no pebble.
    NotTerminal(NodeId),
}

impl From<Violation> for MppErrorKind {
    fn from(v: Violation) -> Self {
        match v {
            Violation::EmptySelection => Self::EmptySelection,
            Violation::BadProcessor(p) => Self::BadProcessor(p),
            Violation::DuplicateProcessor(p) => Self::DuplicateProcessor(p),
            Violation::DuplicateVertex(v) => Self::DuplicateVertex(v),
            Violation::StoreWithoutRed(Rule::Store, proc, node) => {
                Self::StoreWithoutRed { proc, node }
            }
            Violation::LoadWithoutSource(Rule::Load, v) => Self::LoadWithoutBlue(v),
            Violation::MissingInput(proc, node, missing) => Self::MissingInput {
                proc,
                node,
                missing,
            },
            Violation::MemoryExceeded(proc, _, r) => Self::MemoryExceeded { proc, r },
            Violation::AlreadyPebbled(v) => Self::AlreadyPebbled(v),
            Violation::RemoveAbsent(Rule::RemoveRed, p, v) => Self::RemoveAbsent(Pebble::Red(p, v)),
            Violation::RemoveAbsent(_, _, v) => Self::RemoveAbsent(Pebble::Blue(v)),
            Violation::NotTerminal(v) => Self::NotTerminal(v),
            other => unreachable!("{other:?} cannot arise in the two-level game"),
        }
    }
}

/// Replays `moves` on `instance`, enforcing every rule, the per-processor
/// memory bound, and terminality. Returns the cost tally.
pub fn validate(instance: &MppInstance, moves: &[MppMove]) -> Result<Cost, MppError> {
    rules::validate(instance, moves)
}

impl Instance for MppInstance<'_> {
    type Move = MppMove;
    type Store = Configuration;
    type Cost = Cost;
    type Kind = MppErrorKind;

    fn game(&self) -> Game<'_> {
        Game::mpp(self)
    }

    fn initial(&self) -> Configuration {
        Configuration::initial(self.dag, self.k)
    }

    fn tally(cost: &mut Cost, rule: Rule) {
        cost.tally(rule);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbp_dag::dag_from_edges;

    fn v(i: u32) -> NodeId {
        NodeId(i)
    }

    /// Two independent 2-node chains: 0 -> 1, 2 -> 3.
    fn two_chains() -> rbp_dag::Dag {
        dag_from_edges(4, &[(0, 1), (2, 3)])
    }

    #[test]
    fn parallel_compute_batches_validate() {
        let d = two_chains();
        let inst = MppInstance::new(&d, 2, 2, 1);
        let cost = validate(
            &inst,
            &[
                MppMove::Compute(vec![(0, v(0)), (1, v(2))]),
                MppMove::Compute(vec![(0, v(1)), (1, v(3))]),
            ],
        )
        .unwrap();
        // 2 steps total: batching halves the compute cost.
        assert_eq!(cost.computes, 2);
        assert_eq!(cost.io_steps(), 0);
    }

    #[test]
    fn communication_via_blue_validates() {
        // Proc 0 computes 0, communicates it to proc 1 via slow memory,
        // proc 1 computes 1.
        let d = dag_from_edges(2, &[(0, 1)]);
        let inst = MppInstance::new(&d, 2, 2, 3);
        let cost = validate(
            &inst,
            &[
                MppMove::compute1(0, v(0)),
                MppMove::store1(0, v(0)),
                MppMove::load1(1, v(0)),
                MppMove::compute1(1, v(1)),
            ],
        )
        .unwrap();
        assert_eq!(cost.io_steps(), 2);
        assert_eq!(cost.total(inst.model), 2 * 3 + 2);
    }

    #[test]
    fn shades_are_isolated() {
        // Proc 1 cannot compute 1 from proc 0's red pebble on 0.
        let d = dag_from_edges(2, &[(0, 1)]);
        let inst = MppInstance::new(&d, 2, 2, 1);
        let err = validate(
            &inst,
            &[MppMove::compute1(0, v(0)), MppMove::compute1(1, v(1))],
        )
        .unwrap_err();
        assert_eq!(
            err.kind,
            MppErrorKind::MissingInput {
                proc: 1,
                node: v(1),
                missing: v(0)
            }
        );
    }

    #[test]
    fn injective_selection_enforced() {
        let d = two_chains();
        let inst = MppInstance::new(&d, 2, 2, 1);
        let err = validate(&inst, &[MppMove::Compute(vec![(0, v(0)), (0, v(2))])]).unwrap_err();
        assert_eq!(err.kind, MppErrorKind::DuplicateProcessor(0));
    }

    #[test]
    fn load_batch_vertices_must_be_distinct() {
        let d = two_chains();
        let inst = MppInstance::new(&d, 2, 2, 1);
        let err = validate(
            &inst,
            &[
                MppMove::compute1(0, v(0)),
                MppMove::store1(0, v(0)),
                MppMove::Load(vec![(1, v(0)), (0, v(0))]),
            ],
        )
        .unwrap_err();
        // Proc 0 already has red on v0 → AlreadyPebbled fires on the
        // second pair... unless duplicate-vertex fires first.
        assert!(matches!(
            err.kind,
            MppErrorKind::DuplicateVertex(_) | MppErrorKind::AlreadyPebbled(_)
        ));
    }

    #[test]
    fn same_vertex_may_be_computed_by_two_shades_at_once() {
        // Both processors compute source 0 simultaneously: one R3-M step.
        let d = dag_from_edges(1, &[]);
        let inst = MppInstance::new(&d, 2, 1, 1);
        let cost = validate(&inst, &[MppMove::Compute(vec![(0, v(0)), (1, v(0))])]).unwrap();
        assert_eq!(cost.computes, 1);
    }

    #[test]
    fn per_processor_capacity_enforced() {
        let d = dag_from_edges(3, &[]);
        let inst = MppInstance::new(&d, 2, 1, 1);
        let err = validate(
            &inst,
            &[MppMove::compute1(0, v(0)), MppMove::compute1(0, v(1))],
        )
        .unwrap_err();
        assert_eq!(err.kind, MppErrorKind::MemoryExceeded { proc: 0, r: 1 });
    }

    #[test]
    fn batch_capacity_checked_per_processor() {
        // k=2, r=1: batch compute of two different sources is fine
        // (one new pebble per proc), but a second batch overflows.
        let d = dag_from_edges(4, &[]);
        let inst = MppInstance::new(&d, 2, 1, 1);
        validate(&inst, &[MppMove::Compute(vec![(0, v(0)), (1, v(1))])]).unwrap_err(); // not terminal
        let err = validate(
            &inst,
            &[
                MppMove::Compute(vec![(0, v(0)), (1, v(1))]),
                MppMove::Compute(vec![(0, v(2)), (1, v(3))]),
            ],
        )
        .unwrap_err();
        assert!(matches!(err.kind, MppErrorKind::MemoryExceeded { .. }));
    }

    #[test]
    fn removals_and_terminality() {
        let d = dag_from_edges(1, &[]);
        let inst = MppInstance::new(&d, 1, 1, 1);
        // Removing the only pebble leaves the sink bare.
        let err = validate(
            &inst,
            &[
                MppMove::compute1(0, v(0)),
                MppMove::Remove(Pebble::Red(0, v(0))),
            ],
        )
        .unwrap_err();
        assert_eq!(err.kind, MppErrorKind::NotTerminal(v(0)));
    }

    #[test]
    fn remove_absent_rejected() {
        let d = dag_from_edges(1, &[]);
        let inst = MppInstance::new(&d, 1, 1, 1);
        let err = validate(&inst, &[MppMove::Remove(Pebble::Blue(v(0)))]).unwrap_err();
        assert_eq!(err.kind, MppErrorKind::RemoveAbsent(Pebble::Blue(v(0))));
    }

    #[test]
    fn empty_selection_rejected() {
        let d = dag_from_edges(1, &[]);
        let inst = MppInstance::new(&d, 1, 1, 1);
        let err = validate(&inst, &[MppMove::Compute(vec![])]).unwrap_err();
        assert_eq!(err.kind, MppErrorKind::EmptySelection);
    }

    #[test]
    fn bad_processor_rejected() {
        let d = dag_from_edges(1, &[]);
        let inst = MppInstance::new(&d, 1, 1, 1);
        let err = validate(&inst, &[MppMove::compute1(3, v(0))]).unwrap_err();
        assert_eq!(err.kind, MppErrorKind::BadProcessor(3));
    }

    #[test]
    fn store_requires_own_shade() {
        let d = dag_from_edges(1, &[]);
        let inst = MppInstance::new(&d, 2, 1, 1);
        let err = validate(
            &inst,
            &[MppMove::compute1(0, v(0)), MppMove::store1(1, v(0))],
        )
        .unwrap_err();
        assert_eq!(
            err.kind,
            MppErrorKind::StoreWithoutRed {
                proc: 1,
                node: v(0)
            }
        );
    }

    #[test]
    fn k1_mpp_equals_spp_behaviour() {
        // With k=1 the game degenerates to SPP with compute costs.
        let d = dag_from_edges(2, &[(0, 1)]);
        let inst = MppInstance::new(&d, 1, 2, 5);
        let cost = validate(
            &inst,
            &[MppMove::compute1(0, v(0)), MppMove::compute1(0, v(1))],
        )
        .unwrap();
        assert_eq!(cost.total(inst.model), 2);
    }
}
