//! Projecting three-level strategies down to the two-level game.
//!
//! The flattening argument: merge the green tier into blue. A blue
//! pebble is strictly more durable than a green one (it is never
//! evicted for capacity), so replaying a hierarchical strategy with
//! every green store re-interpreted as a blue store — and green
//! deletions dropped — yields a valid MPP strategy. Each green I/O
//! application becomes at most one blue I/O application, so
//!
//! `MPP cost ≤ g·(blue I/O + green I/O) + computes`,
//!
//! i.e. the two-level optimum is bounded by the three-level cost with
//! green traffic re-priced at `g`. Composed with `rbp_core::mpp_to_spp`
//! this chains the Lemma 5 simulation all the way from three levels to
//! a single processor, which is how the tests cross-check the new game
//! against the paper's machinery.

use rbp_core::{MppMove, MppStrategy, Pebble};

use crate::{HierInstance, HierMove, HierPebble, HierStrategy};

/// Flattens a three-level strategy into a two-level one by merging
/// green into blue.
///
/// The result validates against [`HierInstance::mpp_instance`] (same
/// DAG, `k`, `r`, and blue I/O cost `g`). The input strategy is assumed
/// valid for `instance` — validate it first. Move-by-move:
///
/// - `Store`/`StoreGreen` → MPP `Store`, filtered to the vertices not
///   yet in the merged blue set (a green store of an already
///   blue-stored value is a free no-op two levels down); a fully
///   filtered batch is dropped.
/// - `Load`/`LoadGreen` → MPP `Load` (the merged blue set always holds
///   the value: it is a superset of green ∪ blue at every step, since
///   nothing is ever removed from it).
/// - `Compute` and red removals are unchanged.
/// - Green and blue removals are dropped (the classic
///   blue-pebbles-are-never-deleted normalization).
#[must_use]
pub fn hier_to_mpp(instance: &HierInstance, strategy: &HierStrategy) -> MppStrategy {
    let mut merged_blue = instance.dag.empty_set();
    let mut out = Vec::new();
    for mv in &strategy.moves {
        match mv {
            HierMove::Store(batch) | HierMove::StoreGreen(batch) => {
                let fresh: Vec<_> = batch
                    .iter()
                    .copied()
                    .filter(|&(_, v)| !merged_blue.contains(v))
                    .collect();
                if fresh.is_empty() {
                    continue;
                }
                for &(_, v) in &fresh {
                    merged_blue.insert(v);
                }
                out.push(MppMove::Store(fresh));
            }
            HierMove::Load(batch) | HierMove::LoadGreen(batch) => {
                out.push(MppMove::Load(batch.clone()));
            }
            HierMove::Compute(batch) => out.push(MppMove::Compute(batch.clone())),
            HierMove::Remove(HierPebble::Red(p, v)) => {
                out.push(MppMove::Remove(Pebble::Red(*p, *v)));
            }
            HierMove::Remove(HierPebble::Green(_) | HierPebble::Blue(_)) => {}
        }
    }
    MppStrategy::from_moves(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{solve_hier, GreenList, HierScheduler, HierSimulator, HierTopoBaseline};
    use rbp_core::{mpp_to_spp, simulation_instance, SolveLimits};
    use rbp_dag::{dag_from_edges, generators, NodeId};

    fn v(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn green_handoff_projects_to_blue_handoff() {
        let d = dag_from_edges(2, &[(0, 1)]);
        let inst = HierInstance::new(&d, 2, 2, 3, 2, 1);
        let mut sim = HierSimulator::new(inst);
        sim.compute(vec![(0, v(0))]).unwrap();
        sim.apply(HierMove::green_store1(0, v(0))).unwrap();
        sim.apply(HierMove::green_load1(1, v(0))).unwrap();
        sim.compute(vec![(1, v(1))]).unwrap();
        let run = sim.finish().unwrap();

        let mpp = hier_to_mpp(&inst, &run.strategy);
        let mpp_inst = inst.mpp_instance();
        let cost = mpp.validate(&mpp_inst).unwrap();
        assert_eq!(cost.io_steps(), 2);
        // Re-pricing bound: g·(all I/O) + computes.
        let repriced = inst.model.g * (run.cost.io_steps() + run.cost.green_io_steps())
            + inst.model.compute * run.cost.computes;
        assert_eq!(cost.total(mpp_inst.model), repriced);
    }

    #[test]
    fn double_persist_collapses_to_one_store() {
        // Green store then blue store of the same value: the projection
        // must not emit a second (illegal) blue store.
        let d = dag_from_edges(1, &[]);
        let inst = HierInstance::new(&d, 1, 1, 2, 1, 1);
        let mut sim = HierSimulator::new(inst);
        sim.compute(vec![(0, v(0))]).unwrap();
        sim.apply(HierMove::green_store1(0, v(0))).unwrap();
        sim.store(vec![(0, v(0))]).unwrap();
        let run = sim.finish().unwrap();
        let mpp = hier_to_mpp(&inst, &run.strategy);
        let cost = mpp.validate(&inst.mpp_instance()).unwrap();
        assert_eq!(cost.stores, 1);
    }

    #[test]
    fn green_removals_vanish_in_projection() {
        // The green slot is recycled (store, remove, store) — both
        // stores survive the projection as blue stores of distinct
        // vertices, while the green removals are dropped.
        let d = dag_from_edges(2, &[]);
        let inst = HierInstance::new(&d, 1, 1, 2, 1, 1);
        let mut sim = HierSimulator::new(inst);
        sim.compute(vec![(0, v(0))]).unwrap();
        sim.apply(HierMove::green_store1(0, v(0))).unwrap();
        sim.remove_red(0, v(0)).unwrap();
        sim.apply(HierMove::Remove(HierPebble::Green(v(0))))
            .unwrap();
        sim.compute(vec![(0, v(1))]).unwrap();
        sim.apply(HierMove::green_store1(0, v(1))).unwrap();
        // v0 lost its green pebble, but the projection keeps the merged
        // blue pebble, so the projected strategy is terminal even
        // though the hier run itself is not.
        let moves = vec![
            crate::HierMove::compute1(0, v(0)),
            crate::HierMove::green_store1(0, v(0)),
            crate::HierMove::Remove(crate::HierPebble::Red(0, v(0))),
            crate::HierMove::Remove(crate::HierPebble::Green(v(0))),
            crate::HierMove::compute1(0, v(1)),
            crate::HierMove::green_store1(0, v(1)),
        ];
        let strategy = crate::HierStrategy::from_moves(moves);
        let mpp = hier_to_mpp(&inst, &strategy);
        let cost = mpp.validate(&inst.mpp_instance()).unwrap();
        assert_eq!((cost.stores, cost.loads, cost.computes), (2, 0, 2));
        assert!(!mpp
            .moves
            .iter()
            .any(|m| matches!(m, rbp_core::MppMove::Remove(Pebble::Blue(_)))));
    }

    #[test]
    fn scheduler_outputs_project_validly() {
        for (dag, k, r, g, cap) in [
            (generators::binary_in_tree(8), 2, 3, 3, 2),
            (generators::grid(3, 3), 2, 4, 4, 3),
            (generators::layered_random(4, 4, 2, 7), 3, 4, 2, 2),
        ] {
            let inst = HierInstance::new(&dag, k, r, g, cap, 1);
            for s in [
                &HierTopoBaseline as &dyn HierScheduler,
                &GreenList as &dyn HierScheduler,
            ] {
                let run = s.schedule(&inst).unwrap();
                let mpp = hier_to_mpp(&inst, &run.strategy);
                let cost = mpp.validate(&inst.mpp_instance()).unwrap();
                let repriced = inst.model.g * (run.cost.io_steps() + run.cost.green_io_steps())
                    + inst.model.compute * run.cost.computes;
                assert!(
                    cost.total(inst.mpp_instance().model) <= repriced,
                    "{} on {}",
                    s.name(),
                    dag.name()
                );
            }
        }
    }

    #[test]
    fn exact_witness_chains_down_to_spp() {
        // hier → mpp → spp: the full Lemma 5 chain applied to a witness
        // that genuinely uses the green tier.
        let gadget = rbp_gadgets::HierSkip::build(1);
        let d = gadget.dag;
        let inst = HierInstance::new(&d, 1, 3, 3, 1, 1);
        let sol = solve_hier(&inst, SolveLimits::states(500_000)).unwrap();
        assert!(sol.cost.green_io_steps() > 0);
        let mpp_inst = inst.mpp_instance();
        let mpp = hier_to_mpp(&inst, &sol.strategy);
        mpp.validate(&mpp_inst).unwrap();
        let spp = mpp_to_spp(&mpp_inst, &mpp);
        spp.validate(&simulation_instance(&mpp_inst)).unwrap();
    }
}
