//! Strategy post-optimization: batching adjacent moves.
//!
//! MPP charges one unit per *rule application*, however many pebbles the
//! shaded selection moves. A strategy that issues single-pebble moves
//! back to back therefore leaves free cost on the table whenever the
//! moves could have formed one batch. [`batchify`] merges runs of
//! same-type moves into maximal legal batches:
//!
//! - a move joins the current batch only if the *combined* batch is
//!   legal against the batch's pre-state (this is exactly the rule
//!   semantics — all conditions are checked before any pebble moves, so
//!   a load that depends on the preceding store in the run must not be
//!   merged into it);
//! - removals pass through freely (they are free and do not break
//!   batches of the same type around them is *not* assumed — they flush
//!   the batch, conservatively preserving order).
//!
//! The result validates against the same instance and never costs more;
//! the cost strictly drops whenever any merge happened. The pass is a
//! pure function of its input and idempotent, so a caller that proposes
//! it repeatedly (the `rbp-refine` neighborhood) computes it once per
//! strategy. It keeps three configurations and copies between them in
//! place, so it allocates no configuration per move.

use crate::rules::{apply_move, Game};
use crate::{Configuration, MppInstance, MppMove, MppStrategy};

/// Merges adjacent same-type moves into maximal legal batches. The input
/// must be valid for `instance`; the output is valid and costs at most
/// as much.
#[must_use]
pub fn batchify(instance: &MppInstance, strategy: &MppStrategy) -> MppStrategy {
    let game = Game::mpp(instance);
    let mut out: Vec<MppMove> = Vec::with_capacity(strategy.moves.len());
    // Configuration *before* the currently open batch.
    let mut pre = Configuration::initial(instance.dag, instance.k);
    // Configuration after everything flushed so far plus the open batch.
    let mut cur = pre.clone();
    // Scratch for merge attempts. The three are copied between with
    // `clone_from`, which reuses their sets: no allocation per move.
    let mut trial = pre.clone();
    let mut open: Option<MppMove> = None;

    for mv in &strategy.moves {
        // Attempt to extend the open batch with a same-type move.
        if let Some(o) = &open {
            if let Some(candidate) = try_merge(o, mv) {
                trial.clone_from(&pre);
                if apply_move(&game, &mut trial, &candidate).is_ok() {
                    open = Some(candidate);
                    std::mem::swap(&mut cur, &mut trial);
                    continue;
                }
            }
        }
        // Flush the open batch.
        if let Some(o) = open.take() {
            out.push(o);
            pre.clone_from(&cur);
        }
        apply_move(&game, &mut cur, mv).expect("input strategy must be valid");
        if matches!(mv, MppMove::Remove(_)) {
            out.push(mv.clone());
            pre.clone_from(&cur);
        } else {
            open = Some(mv.clone());
        }
    }
    if let Some(o) = open.take() {
        out.push(o);
    }
    MppStrategy::from_moves(out)
}

/// Concatenated batch when both moves apply the same costed rule.
fn try_merge(a: &MppMove, b: &MppMove) -> Option<MppMove> {
    match (a, b) {
        (MppMove::Compute(x), MppMove::Compute(y)) => {
            Some(MppMove::Compute([x.as_slice(), y.as_slice()].concat()))
        }
        (MppMove::Load(x), MppMove::Load(y)) => {
            Some(MppMove::Load([x.as_slice(), y.as_slice()].concat()))
        }
        (MppMove::Store(x), MppMove::Store(y)) => {
            Some(MppMove::Store([x.as_slice(), y.as_slice()].concat()))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{validate_mpp, MppSimulator};
    use rbp_dag::{dag_from_edges, generators, NodeId};

    fn v(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn independent_singles_merge() {
        // Four independent sources computed one at a time on two procs:
        // batchify folds them into two parallel steps.
        let dag = dag_from_edges(4, &[]);
        let inst = MppInstance::new(&dag, 2, 2, 1);
        let mut sim = MppSimulator::new(inst);
        sim.compute(vec![(0, v(0))]).unwrap();
        sim.compute(vec![(1, v(1))]).unwrap();
        sim.compute(vec![(0, v(2))]).unwrap();
        sim.compute(vec![(1, v(3))]).unwrap();
        let run = sim.finish().unwrap();
        assert_eq!(run.cost.computes, 4);

        let opt = batchify(&inst, &run.strategy);
        let cost = validate_mpp(&inst, &opt.moves).unwrap();
        assert_eq!(cost.computes, 2, "pairs of singles became batches");
    }

    #[test]
    fn dependent_io_does_not_merge() {
        // store(p0, v0) then load(p1, v0): the load needs the store's
        // effect, so they must stay separate steps.
        let dag = dag_from_edges(2, &[(0, 1)]);
        let inst = MppInstance::new(&dag, 2, 2, 3);
        let mut sim = MppSimulator::new(inst);
        sim.compute(vec![(0, v(0))]).unwrap();
        sim.store(vec![(0, v(0))]).unwrap();
        sim.load(vec![(1, v(0))]).unwrap();
        sim.compute(vec![(1, v(1))]).unwrap();
        let run = sim.finish().unwrap();
        let opt = batchify(&inst, &run.strategy);
        let cost = validate_mpp(&inst, &opt.moves).unwrap();
        assert_eq!(cost, run.cost, "nothing mergeable here");
    }

    #[test]
    fn dependent_computes_do_not_merge() {
        // compute v0 then compute v1 (child of v0) on the same proc: the
        // second needs the first's pebble, and the same processor cannot
        // appear twice in a selection anyway.
        let dag = dag_from_edges(2, &[(0, 1)]);
        let inst = MppInstance::new(&dag, 1, 2, 1);
        let mut sim = MppSimulator::new(inst);
        sim.compute(vec![(0, v(0))]).unwrap();
        sim.compute(vec![(0, v(1))]).unwrap();
        let run = sim.finish().unwrap();
        let opt = batchify(&inst, &run.strategy);
        assert_eq!(opt.moves.len(), 2);
    }

    #[test]
    fn baseline_improves_and_stays_valid_on_real_dags() {
        use crate::CostModel;
        for dag in [
            generators::fft(3),
            generators::grid(4, 4),
            generators::independent_chains(4, 6),
        ] {
            // The per-node baseline is single-move heavy — prime target.
            let inst = MppInstance::new(&dag, 4, dag.max_in_degree() + 2, 3);
            // Build the baseline inline (avoid a dev-dependency cycle on
            // rbp-schedulers): round-robin load/compute/store.
            let topo = dag.topo();
            let mut sim = MppSimulator::new(inst);
            for (i, &node) in topo.order().iter().enumerate() {
                let p = i % inst.k;
                for &u in dag.preds(node) {
                    sim.load(vec![(p, u)]).unwrap();
                }
                sim.compute(vec![(p, node)]).unwrap();
                sim.store(vec![(p, node)]).unwrap();
                for &u in dag.preds(node) {
                    sim.remove_red(p, u).unwrap();
                }
                sim.remove_red(p, node).unwrap();
            }
            let run = sim.finish().unwrap();
            let opt = batchify(&inst, &run.strategy);
            let cost = validate_mpp(&inst, &opt.moves).unwrap();
            let model = CostModel::mpp(3);
            assert!(cost.total(model) <= run.cost.total(model), "{}", dag.name());
        }
    }

    #[test]
    fn empty_strategy_is_noop() {
        let dag = dag_from_edges(0, &[]);
        let inst = MppInstance::new(&dag, 2, 1, 1);
        let opt = batchify(&inst, &MppStrategy::new());
        assert!(opt.is_empty());
    }

    #[test]
    fn batchify_is_idempotent() {
        let dag = generators::independent_chains(2, 4);
        let inst = MppInstance::new(&dag, 2, 2, 2);
        let mut sim = MppSimulator::new(inst);
        for i in 0..4u32 {
            sim.compute(vec![(0, v(i))]).unwrap();
            sim.compute(vec![(1, v(i + 4))]).unwrap();
            if i > 0 {
                sim.remove_red(0, v(i - 1)).unwrap();
                sim.remove_red(1, v(i + 3)).unwrap();
            }
        }
        let run = sim.finish().unwrap();
        let once = batchify(&inst, &run.strategy);
        let twice = batchify(&inst, &once);
        assert_eq!(once, twice);
    }
}
