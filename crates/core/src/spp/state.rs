//! SPP game state: which nodes hold red/blue pebbles.

use rbp_dag::{Dag, NodeId, NodeSet};

use crate::rules::{PebbleStore, Sets};

/// A single-processor pebbling state.
///
/// `red` is the content of fast memory, `blue` of slow memory. `computed`
/// tracks which nodes have ever been computed (rule R3-S), which the
/// one-shot variant restricts and statistics report on; it never shrinks.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SppState {
    /// Nodes holding a red pebble (fast memory).
    pub red: NodeSet,
    /// Nodes holding a blue pebble (slow memory).
    pub blue: NodeSet,
    /// Nodes computed at least once so far.
    pub computed: NodeSet,
}

impl SppState {
    /// The initial (empty) state for `dag` (base boundary convention).
    #[must_use]
    pub fn initial(dag: &Dag) -> Self {
        SppState {
            red: dag.empty_set(),
            blue: dag.empty_set(),
            computed: dag.empty_set(),
        }
    }

    /// The initial state under a variant's boundary convention: with
    /// `sources_start_blue`, every source begins with a blue pebble.
    #[must_use]
    pub fn initial_for(dag: &Dag, variant: crate::SppVariant) -> Self {
        let mut s = Self::initial(dag);
        if variant.sources_start_blue {
            for src in dag.sources() {
                s.blue.insert(src);
            }
        }
        s
    }

    /// Number of red pebbles in use.
    #[must_use]
    pub fn red_count(&self) -> usize {
        self.red.len()
    }

    /// Whether `v` holds any pebble.
    #[must_use]
    pub fn has_pebble(&self, v: NodeId) -> bool {
        self.red.contains(v) || self.blue.contains(v)
    }
}

impl PebbleStore for SppState {
    type Red = NodeSet;

    #[inline]
    fn sets(&mut self) -> Sets<'_, NodeSet> {
        let (red, computed) = (&mut self.red, Some(&mut self.computed));
        (std::slice::from_mut(red), &mut self.blue, None, computed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::{bare_sink, Game};
    use rbp_dag::dag_from_edges;

    #[test]
    fn initial_state_is_empty() {
        let d = dag_from_edges(3, &[(0, 1), (1, 2)]);
        let mut s = SppState::initial(&d);
        assert_eq!(s.red_count(), 0);
        assert!(!s.has_pebble(NodeId(0)));
        assert_eq!(bare_sink(&Game::new(&d, 1, 1), &mut s), Some(NodeId(2)));
    }

    #[test]
    fn terminal_accepts_red_or_blue_on_sinks() {
        let d = dag_from_edges(3, &[(0, 2), (1, 2)]);
        let game = Game::new(&d, 1, 3);
        let mut s = SppState::initial(&d);
        s.red.insert(NodeId(2));
        assert_eq!(bare_sink(&game, &mut s), None);
        let mut s2 = SppState::initial(&d);
        s2.blue.insert(NodeId(2));
        assert_eq!(bare_sink(&game, &mut s2), None);
    }

    #[test]
    fn empty_dag_is_immediately_terminal() {
        let d = dag_from_edges(0, &[]);
        let mut s = SppState::initial(&d);
        assert_eq!(bare_sink(&Game::new(&d, 1, 1), &mut s), None);
    }
}
