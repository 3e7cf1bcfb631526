//! The Theorem 2 decision procedure: does one-shot SPP admit a
//! **zero-cost** pebbling?
//!
//! In a cost-0 one-shot pebbling no I/O rule can ever fire, so blue
//! pebbles are unusable, recomputation is forbidden, and a red pebble is
//! deleted exactly when all successors of its node have been computed
//! (sinks are never deleted — they are the outputs). A pebbling is then
//! fully characterized by the order of the `n` compute steps, and a
//! zero-cost pebbling with capacity `r` exists iff some topological order
//! keeps the live set (plus the node being placed) within `r` at every
//! step. That is the bottleneck search of [`rbp_dag::min_peak_order`]
//! pruned at `r`, which also returns a witness order.
//!
//! This is exactly the problem the paper's clique reduction (Theorem 2,
//! Figures 3–4) proves NP-hard, so exponential time here is expected; the
//! search is exact for `n ≤ 64` and fast when `r` prunes aggressively.

use rbp_dag::{Dag, NodeId};

/// Whether a zero-cost one-shot pebbling with `r` red pebbles exists.
///
/// Returns `None` when `dag` has more than 64 nodes.
#[must_use]
pub fn zero_io_pebbling_exists(dag: &Dag, r: usize) -> Option<bool> {
    zero_io_order(dag, r).map(|w| w.is_some())
}

/// Finds a compute order witnessing a zero-cost one-shot pebbling with
/// `r` red pebbles, or `None` inner value if no such pebbling exists.
///
/// Outer `None` when the DAG exceeds 64 nodes.
#[must_use]
pub fn zero_io_order(dag: &Dag, r: usize) -> Option<Option<Vec<NodeId>>> {
    if dag.n() > 64 {
        return None;
    }
    Some(rbp_dag::min_peak_order(dag, r).map(|(_, order)| order))
}

/// Converts a witness order into an explicit one-shot SPP strategy
/// (computes plus the forced deletions), suitable for the validator.
#[must_use]
pub fn order_to_strategy(dag: &Dag, order: &[NodeId]) -> crate::SppStrategy {
    use crate::SppMove;
    let n = dag.n();
    let mut remaining_uses: Vec<usize> = dag.nodes().map(|v| dag.out_degree(v)).collect();
    let mut moves = Vec::with_capacity(2 * n);
    for &v in order {
        moves.push(SppMove::Compute(v));
        for &p in dag.preds(v) {
            remaining_uses[p.index()] -= 1;
            if remaining_uses[p.index()] == 0 && dag.out_degree(p) > 0 {
                moves.push(SppMove::RemoveRed(p));
            }
        }
    }
    crate::SppStrategy::from_moves(moves)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CostModel, SppInstance, SppVariant};
    use rbp_dag::{dag_from_edges, generators};

    #[test]
    fn chain_pebbles_with_two() {
        let d = generators::chain(10);
        assert_eq!(zero_io_pebbling_exists(&d, 2), Some(true));
        assert_eq!(zero_io_pebbling_exists(&d, 1), Some(false));
    }

    #[test]
    fn diamond_needs_width_plus_one() {
        let d = generators::diamond(4);
        assert_eq!(zero_io_pebbling_exists(&d, 5), Some(true));
        assert_eq!(zero_io_pebbling_exists(&d, 4), Some(false));
    }

    #[test]
    fn empty_dag() {
        let d = dag_from_edges(0, &[]);
        assert_eq!(zero_io_order(&d, 0), Some(Some(vec![])));
    }

    #[test]
    fn witness_order_is_topological_and_tight() {
        let d = generators::binary_in_tree(4);
        let order = zero_io_order(&d, 4).unwrap().expect("feasible at r=4");
        assert_eq!(order.len(), d.n());
        // Check topological validity.
        let mut seen = d.empty_set();
        for &v in &order {
            for &p in d.preds(v) {
                assert!(seen.contains(p), "order violates dependency");
            }
            seen.insert(v);
        }
    }

    #[test]
    fn witness_converts_to_valid_zero_cost_strategy() {
        let d = generators::binary_in_tree(4);
        let order = zero_io_order(&d, 4).unwrap().unwrap();
        let strat = order_to_strategy(&d, &order);
        let inst = SppInstance {
            dag: &d,
            r: 4,
            model: CostModel::spp_io_only(1),
            variant: SppVariant::one_shot(),
        };
        let cost = strat.validate(&inst).unwrap();
        assert_eq!(cost.io_steps(), 0);
        assert_eq!(cost.computes as usize, d.n());
    }

    #[test]
    fn threshold_matches_min_peak_memory() {
        // The decision threshold must agree with the exact DP in rbp-dag.
        for (name, d) in [
            ("tree", generators::binary_in_tree(8)),
            ("grid", generators::grid(3, 3)),
            ("fft", generators::fft(2)),
            ("diamond", generators::diamond(5)),
        ] {
            let peak = rbp_dag::min_peak_memory(&d, 64).unwrap();
            assert_eq!(
                zero_io_pebbling_exists(&d, peak),
                Some(true),
                "{name}: feasible at its own peak"
            );
            if peak > 0 {
                assert_eq!(
                    zero_io_pebbling_exists(&d, peak - 1),
                    Some(false),
                    "{name}: infeasible below the peak"
                );
            }
        }
    }

    #[test]
    fn oversized_dag_returns_none() {
        let d = generators::chain(65);
        assert_eq!(zero_io_pebbling_exists(&d, 2), None);
    }
}
