//! Hierarchical instances, the two-I/O-cost model, and configurations.

use rbp_core::rules::{Game, PebbleStore, Rule, Sets};
use rbp_core::{CostModel, GameMode, MppInstance};
use rbp_dag::{Dag, NodeId, NodeSet};

/// Per-rule costs of the three-level game.
///
/// Blue I/O (R1-H/R2-H) costs `g` per rule application exactly as in
/// the paper's MPP cost function; green I/O (R5-H/R6-H) costs `green`
/// per application; computes cost `compute`; deletions are free. The
/// model is interesting when `green < g` (the mid tier is the cheaper
/// spill target), but nothing requires it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HierCostModel {
    /// Cost of one blue (slow-memory) I/O rule application.
    pub g: u64,
    /// Cost of one green (mid-tier) I/O rule application.
    pub green: u64,
    /// Cost of one compute rule application.
    pub compute: u64,
}

impl HierCostModel {
    /// The standard hierarchy cost function: blue I/O costs `g`, green
    /// I/O costs `green`, computes cost 1.
    #[must_use]
    pub fn hier(g: u64, green: u64) -> Self {
        HierCostModel {
            g,
            green,
            compute: 1,
        }
    }

    /// The two-level cost model obtained by forgetting the green tier
    /// (used by the degenerate reduction and the projection).
    #[must_use]
    pub fn as_mpp(self) -> CostModel {
        CostModel {
            g: self.g,
            compute: self.compute,
        }
    }
}

/// Tally of rule applications of a hierarchical strategy, with blue and
/// green I/O counted separately so experiments can attribute the
/// savings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HierCost {
    /// R1-H applications (red → blue).
    pub stores: u64,
    /// R2-H applications (blue → red).
    pub loads: u64,
    /// R5-H applications (red → green).
    pub green_stores: u64,
    /// R6-H applications (green → red).
    pub green_loads: u64,
    /// R3-H applications (computes).
    pub computes: u64,
}

impl HierCost {
    /// Zero cost.
    #[must_use]
    pub fn zero() -> Self {
        HierCost::default()
    }

    /// Number of blue I/O rule applications.
    #[must_use]
    pub fn io_steps(&self) -> u64 {
        self.stores + self.loads
    }

    /// Number of green I/O rule applications.
    #[must_use]
    pub fn green_io_steps(&self) -> u64 {
        self.green_stores + self.green_loads
    }

    /// Total cost under `model`:
    /// `g·(stores+loads) + green·(green_stores+green_loads) +
    /// compute·computes`.
    #[must_use]
    pub fn total(&self, model: HierCostModel) -> u64 {
        model.g * self.io_steps()
            + model.green * self.green_io_steps()
            + model.compute * self.computes
    }

    /// Counts one application of `rule` (removals are free).
    pub fn tally(&mut self, rule: Rule) {
        match rule {
            Rule::Store => self.stores += 1,
            Rule::Load => self.loads += 1,
            Rule::StoreGreen => self.green_stores += 1,
            Rule::LoadGreen => self.green_loads += 1,
            Rule::Compute => self.computes += 1,
            Rule::RemoveRed | Rule::RemoveGreen | Rule::RemoveBlue => {}
        }
    }

    /// Adds another tally.
    pub fn add(&mut self, other: HierCost) {
        self.stores += other.stores;
        self.loads += other.loads;
        self.green_stores += other.green_stores;
        self.green_loads += other.green_loads;
        self.computes += other.computes;
    }
}

impl std::fmt::Display for HierCost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "stores={} loads={} green_stores={} green_loads={} computes={}",
            self.stores, self.loads, self.green_stores, self.green_loads, self.computes
        )
    }
}

/// A three-level problem instance: pebble `dag` with `k` processors of
/// red capacity `r`, a shared green tier of capacity `green_cap`, and
/// unbounded blue, under `model`.
#[derive(Debug, Clone, Copy)]
pub struct HierInstance<'a> {
    /// The computational DAG.
    pub dag: &'a Dag,
    /// Number of processors (shades of red).
    pub k: usize,
    /// Fast memory capacity per processor.
    pub r: usize,
    /// Capacity of the shared green tier (`0` disables it, reducing the
    /// game to vanilla MPP).
    pub green_cap: usize,
    /// Rule costs.
    pub model: HierCostModel,
}

impl<'a> HierInstance<'a> {
    /// Standard instance: compute cost 1, blue I/O cost `g`, green I/O
    /// cost `green_cost`, green capacity `green_cap`.
    #[must_use]
    pub fn new(
        dag: &'a Dag,
        k: usize,
        r: usize,
        g: u64,
        green_cap: usize,
        green_cost: u64,
    ) -> Self {
        HierInstance {
            dag,
            k,
            r,
            green_cap,
            model: HierCostModel::hier(g, green_cost),
        }
    }

    /// Lifts a two-level MPP instance into the hierarchy with the given
    /// green parameters (same DAG, processors, red capacity, and blue
    /// I/O cost).
    #[must_use]
    pub fn from_mpp(mpp: &MppInstance<'a>, green_cap: usize, green_cost: u64) -> Self {
        HierInstance::new(mpp.dag, mpp.k, mpp.r, mpp.model.g, green_cap, green_cost)
    }

    /// Lifts an MPP instance according to a [`GameMode`]. Returns
    /// `None` for [`GameMode::Vanilla`]: the caller keeps the two-level
    /// machinery, which answers the same question (the exact solvers
    /// share one search) in the two-level move language.
    #[must_use]
    pub fn from_mode(mpp: &MppInstance<'a>, mode: GameMode) -> Option<Self> {
        match mode {
            GameMode::Vanilla => None,
            GameMode::Hier {
                green_cap,
                green_cost,
            } => Some(HierInstance::from_mpp(mpp, green_cap, green_cost)),
        }
    }

    /// The two-level instance obtained by forgetting the green tier.
    #[must_use]
    pub fn mpp_instance(&self) -> MppInstance<'a> {
        MppInstance {
            dag: self.dag,
            k: self.k,
            r: self.r,
            model: self.model.as_mpp(),
        }
    }

    /// What the shared rule kernel and the exact search read: the
    /// two-level game plus the green capacity.
    #[must_use]
    pub fn game(&self) -> Game<'a> {
        Game {
            green_cap: self.green_cap,
            ..Game::mpp(&self.mpp_instance())
        }
    }

    /// Feasibility requires `r ≥ Δ_in + 1` and at least one processor,
    /// exactly as in the two-level game (the green tier only ever adds
    /// options).
    #[must_use]
    pub fn is_feasible(&self) -> bool {
        self.k >= 1 && self.r > self.dag.max_in_degree()
    }
}

/// A configuration `(R^1, …, R^k, G, B)`: one red set per processor
/// plus the shared bounded green set and the shared unbounded blue set.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct HierConfiguration {
    /// Red pebbles per processor shade.
    pub reds: Vec<NodeSet>,
    /// Green pebbles (shared bounded mid tier).
    pub green: NodeSet,
    /// Blue pebbles (shared unbounded slow memory).
    pub blue: NodeSet,
}

impl HierConfiguration {
    /// The empty initial configuration.
    #[must_use]
    pub fn initial(dag: &Dag, k: usize) -> Self {
        HierConfiguration {
            reds: vec![dag.empty_set(); k],
            green: dag.empty_set(),
            blue: dag.empty_set(),
        }
    }

    /// Number of processors.
    #[must_use]
    pub fn k(&self) -> usize {
        self.reds.len()
    }

    /// Whether `v` holds any pebble (any shade of red, green, or blue).
    #[must_use]
    pub fn has_pebble(&self, v: NodeId) -> bool {
        self.blue.contains(v) || self.green.contains(v) || self.reds.iter().any(|r| r.contains(v))
    }

    /// Whether the configuration respects the capacities.
    #[must_use]
    pub fn is_valid(&self, r: usize, green_cap: usize) -> bool {
        self.green.len() <= green_cap && self.reds.iter().all(|s| s.len() <= r)
    }
}

impl PebbleStore for HierConfiguration {
    type Red = NodeSet;

    #[inline]
    fn sets(&mut self) -> Sets<'_, NodeSet> {
        let green = Some(&mut self.green);
        (&mut self.reds, &mut self.blue, green, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbp_core::rules::bare_sink;
    use rbp_dag::dag_from_edges;

    #[test]
    fn cost_model_and_totals() {
        let m = HierCostModel::hier(4, 1);
        assert_eq!(m.compute, 1);
        assert_eq!(m.as_mpp(), CostModel::mpp(4));
        let c = HierCost {
            stores: 1,
            loads: 2,
            green_stores: 3,
            green_loads: 4,
            computes: 5,
        };
        assert_eq!(c.io_steps(), 3);
        assert_eq!(c.green_io_steps(), 7);
        assert_eq!(c.total(m), 4 * 3 + 7 + 5);
        let mut d = HierCost::zero();
        d.add(c);
        assert_eq!(d, c);
        assert!(c.to_string().contains("green_stores=3"));
    }

    #[test]
    fn instance_lifting_and_feasibility() {
        let d = dag_from_edges(3, &[(0, 2), (1, 2)]);
        let mpp = MppInstance::new(&d, 2, 3, 5);
        let h = HierInstance::from_mpp(&mpp, 2, 1);
        assert_eq!(h.model, HierCostModel::hier(5, 1));
        assert_eq!(h.green_cap, 2);
        assert!(h.is_feasible());
        assert!(!HierInstance::new(&d, 2, 2, 5, 2, 1).is_feasible());
        assert_eq!(h.mpp_instance().model, CostModel::mpp(5));
        assert!(HierInstance::from_mode(&mpp, GameMode::Vanilla).is_none());
        let via = HierInstance::from_mode(
            &mpp,
            GameMode::Hier {
                green_cap: 4,
                green_cost: 2,
            },
        )
        .unwrap();
        assert_eq!((via.green_cap, via.model.green), (4, 2));
    }

    #[test]
    fn configuration_queries() {
        let d = dag_from_edges(2, &[(0, 1)]);
        let game = HierInstance::new(&d, 2, 1, 1, 1, 1).game();
        let mut c = HierConfiguration::initial(&d, 2);
        assert_eq!(c.k(), 2);
        assert_eq!(bare_sink(&game, &mut c), Some(NodeId(1)));
        c.green.insert(NodeId(1));
        assert!(c.has_pebble(NodeId(1)));
        assert_eq!(bare_sink(&game, &mut c), None);
        assert!(c.is_valid(1, 1));
        assert!(!c.is_valid(1, 0));
    }
}
