//! MPP instances and configurations.

use rbp_dag::{Dag, NodeId, NodeSet};

use crate::rules::{PebbleStore, Sets};
use crate::CostModel;

/// An MPP problem instance: pebble `dag` with `k` processors, each with
/// fast memory `r`, under `model` (I/O costs `g`, computes cost 1 in the
/// paper's cost function).
#[derive(Debug, Clone, Copy)]
pub struct MppInstance<'a> {
    /// The computational DAG.
    pub dag: &'a Dag,
    /// Number of processors (shades of red).
    pub k: usize,
    /// Fast memory capacity per processor.
    pub r: usize,
    /// Rule costs.
    pub model: CostModel,
}

impl<'a> MppInstance<'a> {
    /// Standard paper instance: compute cost 1, I/O cost `g`.
    #[must_use]
    pub fn new(dag: &'a Dag, k: usize, r: usize, g: u64) -> Self {
        MppInstance {
            dag,
            k,
            r,
            model: CostModel::mpp(g),
        }
    }

    /// Feasibility requires `r ≥ Δ_in + 1` and at least one processor.
    #[must_use]
    pub fn is_feasible(&self) -> bool {
        self.k >= 1 && self.r > self.dag.max_in_degree()
    }
}

/// A configuration `(R^1, …, R^k, B)`: one red set per processor plus the
/// shared blue set. `computed` additionally tracks nodes ever computed
/// (any shade), for statistics; it is not part of the paper's state but
/// never affects rule legality in the base game.
#[derive(Debug, PartialEq, Eq, Hash)]
pub struct Configuration {
    /// Red pebbles per processor shade.
    pub reds: Vec<NodeSet>,
    /// Blue pebbles (shared slow memory).
    pub blue: NodeSet,
    /// Nodes computed at least once, by any processor.
    pub computed: NodeSet,
}

impl Clone for Configuration {
    #[inline]
    fn clone(&self) -> Self {
        Configuration {
            reds: self.reds.clone(),
            blue: self.blue.clone(),
            computed: self.computed.clone(),
        }
    }

    /// Copies set by set into the existing allocations (the derived
    /// impl would reallocate), so a scratch configuration can be reset
    /// to a checkpoint in place.
    #[inline]
    fn clone_from(&mut self, source: &Self) {
        self.reds.clone_from(&source.reds);
        self.blue.clone_from(&source.blue);
        self.computed.clone_from(&source.computed);
    }
}

impl Configuration {
    /// The empty initial configuration `C_0`.
    #[must_use]
    pub fn initial(dag: &Dag, k: usize) -> Self {
        Configuration {
            reds: vec![dag.empty_set(); k],
            blue: dag.empty_set(),
            computed: dag.empty_set(),
        }
    }

    /// Number of processors.
    #[must_use]
    pub fn k(&self) -> usize {
        self.reds.len()
    }

    /// Whether `v` holds any pebble (any shade or blue).
    #[must_use]
    pub fn has_pebble(&self, v: NodeId) -> bool {
        self.blue.contains(v) || self.reds.iter().any(|r| r.contains(v))
    }

    /// Whether the configuration is valid for capacity `r`.
    #[must_use]
    pub fn is_valid(&self, r: usize) -> bool {
        self.reds.iter().all(|s| s.len() <= r)
    }

    /// The union of all red sets.
    #[must_use]
    pub fn red_union(&self) -> NodeSet {
        let mut u = match self.reds.first() {
            Some(first) => first.clone(),
            None => return NodeSet::new(0),
        };
        for s in &self.reds[1..] {
            u.union_with(s);
        }
        u
    }
}

impl PebbleStore for Configuration {
    type Red = NodeSet;

    #[inline]
    fn sets(&mut self) -> Sets<'_, NodeSet> {
        let computed = Some(&mut self.computed);
        (&mut self.reds, &mut self.blue, None, computed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::{bare_sink, Game};
    use rbp_dag::dag_from_edges;

    #[test]
    fn initial_configuration_is_empty_and_valid() {
        let d = dag_from_edges(3, &[(0, 1), (1, 2)]);
        let mut c = Configuration::initial(&d, 2);
        assert_eq!(c.k(), 2);
        assert!(c.is_valid(0));
        assert_eq!(bare_sink(&Game::new(&d, 2, 1), &mut c), Some(NodeId(2)));
        assert!(!c.has_pebble(NodeId(0)));
        assert!(c.red_union().is_empty());
    }

    #[test]
    fn terminal_accepts_any_shade_or_blue() {
        let d = dag_from_edges(2, &[(0, 1)]);
        let game = Game::new(&d, 2, 1);
        let mut c = Configuration::initial(&d, 2);
        c.reds[1].insert(NodeId(1));
        assert_eq!(bare_sink(&game, &mut c), None);
        let mut c2 = Configuration::initial(&d, 2);
        c2.blue.insert(NodeId(1));
        assert_eq!(bare_sink(&game, &mut c2), None);
    }

    #[test]
    fn validity_checks_each_processor() {
        let d = dag_from_edges(3, &[]);
        let mut c = Configuration::initial(&d, 2);
        c.reds[0].insert(NodeId(0));
        c.reds[0].insert(NodeId(1));
        c.reds[1].insert(NodeId(2));
        assert!(c.is_valid(2));
        assert!(!c.is_valid(1));
    }

    #[test]
    fn red_union_merges_shades() {
        let d = dag_from_edges(3, &[]);
        let mut c = Configuration::initial(&d, 2);
        c.reds[0].insert(NodeId(0));
        c.reds[1].insert(NodeId(0));
        c.reds[1].insert(NodeId(2));
        assert_eq!(c.red_union().len(), 2);
    }

    #[test]
    fn feasibility() {
        let d = dag_from_edges(3, &[(0, 2), (1, 2)]);
        assert!(!MppInstance::new(&d, 2, 2, 1).is_feasible());
        assert!(MppInstance::new(&d, 2, 3, 1).is_feasible());
        assert!(!MppInstance::new(&d, 0, 3, 1).is_feasible());
    }
}
