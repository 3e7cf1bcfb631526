//! Heuristic schedulers producing valid three-level strategies.
//!
//! Every move goes through the rule-enforcing [`HierSimulator`], so an
//! illegal schedule is a bug that surfaces immediately, not a silently
//! wrong cost — the same discipline as `rbp-schedulers`.
//!
//! - [`HierTopoBaseline`] — the Lemma 1 strategy lifted verbatim: all
//!   traffic through blue, green never touched. The yardstick.
//! - [`GreenList`] — topological list scheduling with two-tier
//!   eviction: spills and cross-processor handoffs go to the green
//!   tier while it has room (reclaiming dead green entries for free),
//!   falling back to blue; loads prefer green.

use rbp_core::ProcId;
use rbp_dag::NodeId;
use rbp_util::Json;

use crate::{HierError, HierInstance, HierMove, HierPebble, HierRun, HierSimulator};

/// A scheduler producing a valid three-level strategy for any feasible
/// instance. Stateless configuration holders, `Send + Sync` so sweeps
/// can run them from worker threads.
pub trait HierScheduler: Send + Sync {
    /// Human-readable name used in experiment tables.
    fn name(&self) -> String;

    /// Builds and returns a validated run for `instance`.
    fn schedule(&self, instance: &HierInstance) -> Result<HierRun, HierError>;
}

/// The default hierarchical scheduler registry used by sweeps.
#[must_use]
pub fn all_hier_schedulers() -> Vec<Box<dyn HierScheduler>> {
    vec![Box::new(HierTopoBaseline), Box::new(GreenList)]
}

/// Emits one snapshot of a finished run to the global tracer under the
/// `scheduler.<name>.*` prefix, splitting green from blue traffic.
fn trace_run(name: &str, run: &HierRun) {
    if !rbp_trace::enabled() {
        return;
    }
    let c = run.cost;
    rbp_trace::counter(&format!("scheduler.{name}.green_stores"), c.green_stores);
    rbp_trace::counter(&format!("scheduler.{name}.green_loads"), c.green_loads);
    rbp_trace::counter(&format!("scheduler.{name}.stores"), c.stores);
    rbp_trace::counter(&format!("scheduler.{name}.loads"), c.loads);
    rbp_trace::counter(&format!("scheduler.{name}.computes"), c.computes);
    rbp_trace::counter(
        &format!("scheduler.{name}.steps"),
        run.strategy.len() as u64,
    );
}

fn schedule_span(name: &str, instance: &HierInstance) -> rbp_trace::SpanGuard {
    rbp_trace::span_with(
        "scheduler.schedule",
        vec![
            ("scheduler", Json::from(name)),
            ("n", Json::from(instance.dag.n() as u64)),
            ("k", Json::from(instance.k as u64)),
            ("green_cap", Json::from(instance.green_cap as u64)),
        ],
    )
}

/// The Lemma 1 baseline lifted to three levels: per node, load inputs
/// from blue, compute, store blue, evict — green capacity ignored.
/// Cost ≤ `(g·(Δ_in + 1) + 1)·n` exactly as in the two-level game.
#[derive(Debug, Clone, Copy, Default)]
pub struct HierTopoBaseline;

impl HierScheduler for HierTopoBaseline {
    fn name(&self) -> String {
        "hier-topo-baseline".into()
    }

    fn schedule(&self, instance: &HierInstance) -> Result<HierRun, HierError> {
        let _span = schedule_span("hier-topo-baseline", instance);
        let dag = instance.dag;
        let topo = dag.topo();
        let mut sim = HierSimulator::new(*instance);
        for (i, &v) in topo.order().iter().enumerate() {
            let p = i % instance.k;
            for &u in dag.preds(v) {
                sim.load(vec![(p, u)])?;
            }
            sim.compute(vec![(p, v)])?;
            sim.store(vec![(p, v)])?;
            for &u in dag.preds(v) {
                sim.remove_red(p, u)?;
            }
            sim.remove_red(p, v)?;
        }
        let run = sim.finish()?;
        trace_run(&self.name(), &run);
        Ok(run)
    }
}

/// Green-aware topological list scheduling with two-tier eviction.
///
/// Nodes are assigned round-robin in topological order. Each processor
/// keeps values red as long as capacity allows; on eviction, a value
/// that is still needed (a remaining consumer or a sink) and not yet
/// persisted is staged to the green tier if it has room — dead green
/// entries (no remaining consumers, not sinks) are reclaimed for free
/// first — and to blue otherwise. Cross-processor handoffs are
/// persisted eagerly at compute time, green-first. Loads prefer the
/// green copy whenever it is at least as cheap as a blue load.
#[derive(Debug, Clone, Copy, Default)]
pub struct GreenList;

impl GreenList {
    /// Picks an eviction victim on processor `p`: any red node outside
    /// `keep`, preferring values that are dead or already persisted
    /// (their eviction is free).
    fn victim(
        sim: &HierSimulator,
        p: ProcId,
        keep: &dyn Fn(NodeId) -> bool,
        needed: &dyn Fn(NodeId) -> bool,
    ) -> NodeId {
        let cfg = sim.config();
        let mut fallback = None;
        for w in cfg.reds[p].iter() {
            if keep(w) {
                continue;
            }
            if !needed(w) || cfg.green.contains(w) || cfg.blue.contains(w) {
                return w;
            }
            fallback = Some(w);
        }
        fallback.expect("feasible instance always has an eviction victim")
    }

    /// Evicts `w` from `p`, persisting it first if it is still needed
    /// and held nowhere outside `p`'s fast memory.
    fn evict(
        sim: &mut HierSimulator,
        p: ProcId,
        w: NodeId,
        needed: &dyn Fn(NodeId) -> bool,
        remaining: &[u32],
        sinks: &[bool],
    ) -> Result<(), HierError> {
        let cfg = sim.config();
        let held_elsewhere = cfg.green.contains(w)
            || cfg.blue.contains(w)
            || cfg
                .reds
                .iter()
                .enumerate()
                .any(|(q, s)| q != p && s.contains(w));
        if needed(w) && !held_elsewhere {
            Self::persist(sim, p, w, remaining, sinks)?;
        }
        sim.remove_red(p, w)
    }

    /// Persists `w` from `p` green-first: reclaims dead green entries
    /// to make room, then falls back to blue if the tier is full or
    /// not cheaper. No-op if `w` is already green, or already blue
    /// when a green store is impossible.
    fn persist(
        sim: &mut HierSimulator,
        p: ProcId,
        w: NodeId,
        remaining: &[u32],
        sinks: &[bool],
    ) -> Result<(), HierError> {
        let inst = *sim.instance();
        let cheaper = inst.model.green <= inst.model.g;
        if cheaper && sim.config().green.len() >= inst.green_cap {
            let dead: Vec<NodeId> = sim
                .config()
                .green
                .iter()
                .filter(|&u| remaining[u.index()] == 0 && !sinks[u.index()])
                .collect();
            for u in dead {
                if sim.config().green.len() < inst.green_cap {
                    break;
                }
                sim.apply(HierMove::Remove(HierPebble::Green(u)))?;
            }
        }
        let green = &sim.config().green;
        if green.contains(w) {
            return Ok(());
        }
        if cheaper && green.len() < inst.green_cap {
            return sim.apply(HierMove::green_store1(p, w));
        }
        sim.ensure_stored(p, w)
    }

    /// Loads `u` into `p`, preferring the green copy when it is at
    /// least as cheap.
    fn fetch(sim: &mut HierSimulator, p: ProcId, u: NodeId) -> Result<(), HierError> {
        let inst = *sim.instance();
        let cfg = sim.config();
        let green_ok = cfg.green.contains(u);
        let blue_ok = cfg.blue.contains(u);
        if green_ok && (inst.model.green <= inst.model.g || !blue_ok) {
            sim.apply(HierMove::green_load1(p, u))
        } else {
            sim.load(vec![(p, u)])
        }
    }
}

impl HierScheduler for GreenList {
    fn name(&self) -> String {
        "green-list".into()
    }

    fn schedule(&self, instance: &HierInstance) -> Result<HierRun, HierError> {
        let _span = schedule_span("green-list", instance);
        let dag = instance.dag;
        let n = dag.n();
        let topo = dag.topo();
        let k = instance.k;

        // Static round-robin ownership in topological order.
        let mut proc = vec![0usize; n];
        for (i, &v) in topo.order().iter().enumerate() {
            proc[v.index()] = i % k;
        }
        // Remaining consumers per node; a node is needed while it has
        // uncomputed successors or is a sink.
        let mut remaining: Vec<u32> = (0..n)
            .map(|i| dag.succs(NodeId::new(i)).len() as u32)
            .collect();
        let mut sinks = vec![false; n];
        for s in dag.sinks() {
            sinks[s.index()] = true;
        }

        let mut sim = HierSimulator::new(*instance);
        for &v in topo.order() {
            let p = proc[v.index()];
            let needed = |u: NodeId| remaining[u.index()] > 0 || sinks[u.index()];
            // Bring every input red on p, making room as required.
            for &u in dag.preds(v) {
                if sim.config().reds[p].contains(u) {
                    continue;
                }
                while sim.config().reds[p].len() >= instance.r {
                    let keep = |w: NodeId| w == v || dag.preds(v).contains(&w);
                    let w = Self::victim(&sim, p, &keep, &needed);
                    Self::evict(&mut sim, p, w, &needed, &remaining, &sinks)?;
                }
                Self::fetch(&mut sim, p, u)?;
            }
            // Room for v itself.
            while sim.config().reds[p].len() >= instance.r {
                let keep = |w: NodeId| w == v || dag.preds(v).contains(&w);
                let w = Self::victim(&sim, p, &keep, &needed);
                Self::evict(&mut sim, p, w, &needed, &remaining, &sinks)?;
            }
            sim.compute(vec![(p, v)])?;
            for &u in dag.preds(v) {
                remaining[u.index()] -= 1;
            }
            // Eager handoff: if some consumer runs elsewhere, publish
            // v now while it is still red here.
            if dag.succs(v).iter().any(|&s| proc[s.index()] != p) {
                Self::persist(&mut sim, p, v, &remaining, &sinks)?;
            }
        }
        let run = sim.finish()?;
        trace_run(&self.name(), &run);
        Ok(run)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbp_dag::{dag_from_edges, generators, DagStats};

    fn v(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn registry_runs_everything_and_revalidates() {
        let dag = generators::layered_random(4, 4, 2, 11);
        let inst = HierInstance::new(&dag, 2, 4, 2, 3, 1);
        for s in all_hier_schedulers() {
            let run = s
                .schedule(&inst)
                .unwrap_or_else(|e| panic!("{} failed: {e}", s.name()));
            let cost = run.strategy.validate(&inst).unwrap();
            assert_eq!(cost, run.cost, "{}", s.name());
        }
    }

    #[test]
    fn baseline_respects_lemma1_bound() {
        for (dag, k, r, g) in [
            (generators::binary_in_tree(8), 2, 3, 3),
            (generators::grid(3, 4), 3, 3, 2),
            (generators::layered_random(5, 4, 3, 9), 4, 4, 4),
        ] {
            let inst = HierInstance::new(&dag, k, r, g, 2, 1);
            let run = HierTopoBaseline.schedule(&inst).unwrap();
            let stats = DagStats::compute(&dag);
            let bound = (g * (stats.max_in_degree as u64 + 1) + 1) * stats.n as u64;
            assert!(run.cost.total(inst.model) <= bound, "{}", dag.name());
            assert_eq!(run.cost.green_io_steps(), 0);
        }
    }

    #[test]
    fn green_list_never_loses_to_baseline_with_cheap_green() {
        for (dag, k, r, g) in [
            (generators::binary_in_tree(8), 2, 3, 3),
            (generators::grid(3, 4), 2, 4, 4),
            (generators::fft(3), 2, 4, 5),
            (generators::layered_random(5, 4, 3, 9), 3, 4, 4),
        ] {
            let inst = HierInstance::new(&dag, k, r, g, 4, 1);
            let base = HierTopoBaseline.schedule(&inst).unwrap();
            let green = GreenList.schedule(&inst).unwrap();
            assert!(
                green.cost.total(inst.model) <= base.cost.total(inst.model),
                "{}: green-list {} > baseline {}",
                dag.name(),
                green.cost.total(inst.model),
                base.cost.total(inst.model)
            );
        }
    }

    #[test]
    fn green_list_uses_green_for_handoffs() {
        // Two processors alternate along a chain: every handoff should
        // ride the cheap green tier, not blue.
        let dag = generators::chain(8);
        let inst = HierInstance::new(&dag, 2, 3, 5, 2, 1);
        let run = GreenList.schedule(&inst).unwrap();
        assert!(run.cost.green_io_steps() > 0);
        assert_eq!(
            run.cost.io_steps(),
            0,
            "no blue traffic expected: {}",
            run.cost
        );
    }

    #[test]
    fn green_list_with_zero_cap_is_pure_mpp() {
        let dag = generators::grid(3, 3);
        let inst = HierInstance::new(&dag, 2, 4, 3, 0, 1);
        let run = GreenList.schedule(&inst).unwrap();
        assert_eq!(run.cost.green_io_steps(), 0);
        run.strategy.validate(&inst).unwrap();
    }

    #[test]
    fn green_list_works_at_minimum_feasible_memory() {
        let dag = generators::diamond(6); // Δin = 6
        let inst = HierInstance::new(&dag, 2, 7, 2, 1, 1);
        let run = GreenList.schedule(&inst).unwrap();
        run.strategy.validate(&inst).unwrap();
    }

    #[test]
    fn green_list_reclaims_dead_green_entries() {
        // A long chain on one processor with r = 2 and green_cap = 1:
        // each spilled value dies once consumed, so the single green
        // slot must be recycled along the chain instead of overflowing
        // to blue.
        let dag = dag_from_edges(6, &[(0, 2), (1, 2), (2, 4), (3, 4), (4, 5)]);
        let inst = HierInstance::new(&dag, 1, 3, 9, 1, 1);
        let run = GreenList.schedule(&inst).unwrap();
        assert_eq!(
            run.cost.io_steps(),
            0,
            "blue fallback unexpected: {}",
            run.cost
        );
    }

    #[test]
    fn persist_prefers_green_until_full() {
        let d = dag_from_edges(3, &[]);
        let inst = HierInstance::new(&d, 1, 3, 7, 1, 1);
        // Every node is a live sink: no green entry is ever reclaimed.
        let (remaining, sinks) = ([0; 3], [true; 3]);
        let mut sim = HierSimulator::new(inst);
        sim.compute(vec![(0, v(0))]).unwrap();
        sim.compute(vec![(0, v(1))]).unwrap();
        GreenList::persist(&mut sim, 0, v(0), &remaining, &sinks).unwrap();
        // Idempotent while green.
        GreenList::persist(&mut sim, 0, v(0), &remaining, &sinks).unwrap();
        // Green full: falls back to blue.
        GreenList::persist(&mut sim, 0, v(1), &remaining, &sinks).unwrap();
        GreenList::persist(&mut sim, 0, v(1), &remaining, &sinks).unwrap();
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
        GreenList::persist(&mut sim, 0, v(0), &[0], &[true]).unwrap();
        let run = sim.finish().unwrap();
        assert_eq!((run.cost.green_stores, run.cost.stores), (0, 1));
    }

    #[test]
    fn names_are_distinct() {
        let names: Vec<String> = all_hier_schedulers().iter().map(|s| s.name()).collect();
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "{names:?}");
    }
}
