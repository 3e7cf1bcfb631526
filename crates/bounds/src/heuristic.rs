//! State-dependent lower bounds: the A\* heuristic as a bound machine.
//!
//! [`rbp_core::AdmissibleHeuristic`] gives, for *any* mid-game
//! configuration, a lower bound on the remaining cost — a strict
//! generalization of the Lemma 1 whole-instance bound, which is the
//! special case of the empty starting configuration. This module exposes
//! that view and cross-checks it against both [`crate::trivial`] and the
//! exact solvers.
//!
//! Why this is a valid lower bound (admissibility, proved in detail in
//! `rbp-core::search`):
//!
//! - every still-needed node (upward closure of unpebbled sinks through
//!   unpebbled nodes) must be computed at least once, and a compute step
//!   finishes at most `k` of them that are *minimal* in the needed set —
//!   hence `ceil(|needed|/k)` compute steps;
//! - values that are blue but not red and can never be recomputed
//!   (Hong–Kung inputs, spent one-shot nodes) must be loaded, `≤ k` per
//!   load step;
//! - in sink-to-blue variants, unsaved sinks must be stored, `≤ k` per
//!   store step. The three step classes are disjoint, so the terms add.

use rbp_core::rules::Game;
use rbp_core::{AdmissibleHeuristic, MppInstance, SppInstance};

/// Lower bound on the total cost of `instance` obtained by evaluating
/// the A\* heuristic at the initial (empty) configuration.
///
/// Always at least as strong as [`crate::trivial::lower`]; returns
/// `None` when the DAG has more than 64 nodes (bitmask representation)
/// — not when the instance is merely infeasible, which the trivial
/// bounds handle separately.
#[must_use]
pub fn mpp_initial_lower(instance: &MppInstance) -> Option<u64> {
    if instance.dag.n() > 64 {
        return None;
    }
    let h = AdmissibleHeuristic::new(&Game::mpp(instance), instance.model, 0);
    // The empty start state is never "dead", so eval yields a bound.
    h.eval(0, 0, 0)
}

/// SPP counterpart of [`mpp_initial_lower`], honoring the instance's
/// variant flags (Hong–Kung boundary conventions, one-shot).
#[must_use]
pub fn spp_initial_lower(instance: &SppInstance) -> Option<u64> {
    if instance.dag.n() > 64 {
        return None;
    }
    let h = AdmissibleHeuristic::new(&Game::spp(instance), instance.model, 0);
    let start_blue: u64 = if instance.variant.sources_start_blue {
        instance
            .dag
            .sources()
            .iter()
            .fold(0u64, |m, s| m | (1u64 << s.index()))
    } else {
        0
    };
    h.eval(0, start_blue, 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trivial;
    use rbp_core::{solve_mpp, solve_spp, SolveLimits, SppVariant};
    use rbp_dag::generators;

    #[test]
    fn mpp_heuristic_dominates_trivial_lower() {
        for (d, k, r, g) in [
            (generators::binary_in_tree(4), 2, 3, 2),
            (generators::grid(3, 3), 2, 3, 1),
            (generators::diamond(3), 3, 4, 5),
        ] {
            let inst = MppInstance::new(&d, k, r, g);
            let h0 = mpp_initial_lower(&inst).unwrap();
            assert!(
                h0 >= trivial::lower(&inst),
                "{}: h0={h0} < trivial={}",
                d.name(),
                trivial::lower(&inst)
            );
        }
    }

    #[test]
    fn mpp_heuristic_never_exceeds_opt() {
        for (d, k, r, g) in [
            (generators::binary_in_tree(4), 2, 3, 2),
            (generators::chain(5), 2, 2, 3),
            (generators::diamond(2), 2, 3, 1),
        ] {
            let inst = MppInstance::new(&d, k, r, g);
            let h0 = mpp_initial_lower(&inst).unwrap();
            let opt = solve_mpp(&inst, SolveLimits::default()).unwrap().total;
            assert!(h0 <= opt, "{}: h0={h0} > OPT={opt}", d.name());
        }
    }

    #[test]
    fn spp_heuristic_sound_on_hong_kung() {
        let d = generators::binary_in_tree(4);
        let inst = SppInstance {
            dag: &d,
            r: 3,
            model: rbp_core::CostModel::spp_io_only(1),
            variant: SppVariant::hong_kung(),
        };
        let h0 = spp_initial_lower(&inst).unwrap();
        let opt = solve_spp(&inst, SolveLimits::default()).unwrap().total;
        // Hong–Kung: all 8 leaves must be loaded, the root stored.
        assert!(h0 >= 1);
        assert!(h0 <= opt);
    }

    #[test]
    fn oversized_dag_is_rejected() {
        let d = generators::chain(70);
        let inst = MppInstance::new(&d, 2, 2, 1);
        assert_eq!(mpp_initial_lower(&inst), None);
    }
}
