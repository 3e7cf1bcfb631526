//! The streaming rule-enforcing simulator.
//!
//! [`StreamSim`] plays the same role as `rbp_core::MppSimulator`: every
//! move a scheduler proposes is checked by `rbp_core::rules`, the rule
//! kernel every game shares, before it counts. It differs in two ways
//! that let it scale:
//!
//! 1. moves are forwarded to a [`StrategySink`] instead of being
//!    buffered in a strategy vector, so resident state is independent
//!    of strategy length;
//! 2. its pebble store keeps the per-processor red sets as
//!    [`HybridNodeSet`]s: red pebbles are bounded by the memory
//!    parameter `r`, so on a million-node DAG each set stays in its
//!    sparse representation at `O(r)` bytes instead of `O(n/8)`.
//!
//! The blue set remains one dense bitset (`n/8` bytes — at 10^6 nodes
//! that is 125 KB, far below the size of the strategy being emitted).

use rbp_core::rules::{self, Game, PebbleStore, Rule, Sets};
use rbp_core::{Cost, MppError, MppErrorKind, MppMove, Pebble, ProcId};
use rbp_dag::{Dag, HybridNodeSet, NodeId, NodeSet};

use crate::sink::StrategySink;

/// Error from a streaming schedule: either a pebbling rule violation or
/// an I/O failure of the strategy sink.
#[derive(Debug)]
pub enum StreamError {
    /// A move violated the MPP rules (same error type as the in-memory
    /// validator, with the offending move index).
    Rule(MppError),
    /// The strategy sink failed to accept a move.
    Io(std::io::Error),
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Rule(e) => write!(f, "rule violation: {e}"),
            StreamError::Io(e) => write!(f, "sink error: {e}"),
        }
    }
}

impl std::error::Error for StreamError {}

impl From<std::io::Error> for StreamError {
    fn from(e: std::io::Error) -> Self {
        StreamError::Io(e)
    }
}

impl From<MppError> for StreamError {
    fn from(e: MppError) -> Self {
        StreamError::Rule(e)
    }
}

/// The streaming tier's pebble store: sparse-capable red sets, one
/// dense blue set.
struct Store {
    reds: Vec<HybridNodeSet>,
    blue: NodeSet,
}

impl PebbleStore for Store {
    type Red = HybridNodeSet;

    #[inline]
    fn sets(&mut self) -> Sets<'_, HybridNodeSet> {
        (&mut self.reds, &mut self.blue, None, None)
    }
}

/// Streaming MPP simulator: rule-checks moves, tallies cost, forwards
/// every accepted move to a sink.
pub struct StreamSim<'d> {
    game: Game<'d>,
    store: Store,
    cost: Cost,
    moves: u64,
    red_total: usize,
    peak_active: usize,
}

impl<'d> StreamSim<'d> {
    /// New simulator over the initial configuration (no pebbles).
    ///
    /// # Panics
    /// Panics when `k` or `r` is zero (no processor / no memory is not
    /// a playable instance).
    #[must_use]
    pub fn new(dag: &'d Dag, k: usize, r: usize) -> Self {
        assert!(k >= 1, "need at least one processor");
        assert!(r >= 1, "need at least one red pebble of memory");
        StreamSim {
            game: Game::new(dag, k, r),
            store: Store {
                reds: (0..k).map(|_| HybridNodeSet::new(dag.n())).collect(),
                blue: NodeSet::new(dag.n()),
            },
            cost: Cost::zero(),
            moves: 0,
            red_total: 0,
            peak_active: 0,
        }
    }

    /// Cost tally so far.
    #[must_use]
    pub fn cost(&self) -> Cost {
        self.cost
    }

    /// Number of moves emitted so far.
    #[must_use]
    pub fn moves(&self) -> u64 {
        self.moves
    }

    /// Largest number of simultaneously live red pebbles seen so far —
    /// the resident "active set" the streaming tier is sized by.
    #[must_use]
    pub fn peak_active_set(&self) -> usize {
        self.peak_active
    }

    /// Whether processor `p` holds a red pebble on `v`.
    #[must_use]
    pub fn is_red(&self, p: ProcId, v: NodeId) -> bool {
        self.store.reds[p].contains(v)
    }

    /// Whether `v` holds a blue pebble.
    #[must_use]
    pub fn is_blue(&self, v: NodeId) -> bool {
        self.store.blue.contains(v)
    }

    /// Number of red pebbles processor `p` currently holds.
    #[must_use]
    pub fn red_len(&self, p: ProcId) -> usize {
        self.store.reds[p].len()
    }

    fn err(&self, kind: MppErrorKind) -> StreamError {
        StreamError::Rule(MppError {
            step: self.moves as usize,
            kind,
        })
    }

    /// Checks `rule` on `sel` through the rule kernel, tallies it, and
    /// forwards the move `mv` builds.
    #[inline]
    fn play(
        &mut self,
        sink: &mut dyn StrategySink,
        rule: Rule,
        sel: &[(ProcId, NodeId)],
        mv: impl FnOnce() -> MppMove,
    ) -> Result<(), StreamError> {
        rules::apply(&self.game, &mut self.store, rule, sel).map_err(|v| self.err(v.into()))?;
        match rule {
            Rule::Load | Rule::Compute => {
                self.red_total += sel.len();
                self.peak_active = self.peak_active.max(self.red_total);
            }
            Rule::RemoveRed => self.red_total -= 1,
            _ => {}
        }
        self.cost.tally(rule);
        sink.emit(&mv())?;
        self.moves += 1;
        Ok(())
    }

    /// R2-M: batched load of blue values into red memory.
    ///
    /// # Errors
    /// Rule violations ([`StreamError::Rule`]) or sink failures.
    pub fn load(
        &mut self,
        sink: &mut dyn StrategySink,
        batch: &[(ProcId, NodeId)],
    ) -> Result<(), StreamError> {
        self.play(sink, Rule::Load, batch, || MppMove::Load(batch.to_vec()))
    }

    /// R3-M: batched compute.
    ///
    /// # Errors
    /// Rule violations ([`StreamError::Rule`]) or sink failures.
    pub fn compute(
        &mut self,
        sink: &mut dyn StrategySink,
        batch: &[(ProcId, NodeId)],
    ) -> Result<(), StreamError> {
        self.play(sink, Rule::Compute, batch, || {
            MppMove::Compute(batch.to_vec())
        })
    }

    /// R1-M: batched store of red values to slow memory.
    ///
    /// # Errors
    /// Rule violations ([`StreamError::Rule`]) or sink failures.
    pub fn store(
        &mut self,
        sink: &mut dyn StrategySink,
        batch: &[(ProcId, NodeId)],
    ) -> Result<(), StreamError> {
        self.play(sink, Rule::Store, batch, || MppMove::Store(batch.to_vec()))
    }

    /// R4-M: removes a red pebble (free).
    ///
    /// # Errors
    /// Rule violations ([`StreamError::Rule`]) or sink failures.
    pub fn remove_red(
        &mut self,
        sink: &mut dyn StrategySink,
        p: ProcId,
        v: NodeId,
    ) -> Result<(), StreamError> {
        let mv = || MppMove::Remove(Pebble::Red(p, v));
        self.play(sink, Rule::RemoveRed, &[(p, v)], mv)
    }

    /// R4-M: removes a blue pebble (free).
    ///
    /// # Errors
    /// Rule violations ([`StreamError::Rule`]) or sink failures.
    pub fn remove_blue(
        &mut self,
        sink: &mut dyn StrategySink,
        v: NodeId,
    ) -> Result<(), StreamError> {
        let mv = || MppMove::Remove(Pebble::Blue(v));
        self.play(sink, Rule::RemoveBlue, &[(0, v)], mv)
    }

    /// Terminality check and sink flush: every sink node must hold a
    /// pebble of some color. Consumes the simulator.
    ///
    /// # Errors
    /// [`MppErrorKind::NotTerminal`] when a DAG sink is unpebbled;
    /// sink flush failures.
    pub fn finish(mut self, sink: &mut dyn StrategySink) -> Result<(), StreamError> {
        if let Some(v) = rules::bare_sink(&self.game, &mut self.store) {
            return Err(self.err(MppErrorKind::NotTerminal(v)));
        }
        sink.finish()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::VecSink;
    use rbp_dag::dag_from_edges;

    #[test]
    fn enforces_rules_like_the_validator() {
        let dag = dag_from_edges(2, &[(0, 1)]);
        let mut sink = VecSink::new();
        let mut sim = StreamSim::new(&dag, 1, 2);
        // Load before anything is blue: rejected.
        let err = sim.load(&mut sink, &[(0, NodeId(0))]).unwrap_err();
        assert!(matches!(
            err,
            StreamError::Rule(MppError {
                kind: MppErrorKind::LoadWithoutBlue(_),
                ..
            })
        ));
        sim.compute(&mut sink, &[(0, NodeId(0))]).unwrap();
        sim.compute(&mut sink, &[(0, NodeId(1))]).unwrap();
        sim.store(&mut sink, &[(0, NodeId(1))]).unwrap();
        assert_eq!(sim.peak_active_set(), 2);
        sim.finish(&mut sink).unwrap();
        // The emitted strategy replays cleanly through the in-memory
        // validator with the same cost.
        let inst = rbp_core::MppInstance::new(&dag, 1, 2, 3);
        let cost = sink.strategy().validate(&inst).unwrap();
        assert_eq!(cost.computes, 2);
        assert_eq!(cost.stores, 1);
    }

    #[test]
    fn capacity_is_enforced() {
        let dag = dag_from_edges(3, &[(0, 2), (1, 2)]);
        let mut sink = VecSink::new();
        let mut sim = StreamSim::new(&dag, 1, 2);
        sim.compute(&mut sink, &[(0, NodeId(0))]).unwrap();
        sim.compute(&mut sink, &[(0, NodeId(1))]).unwrap();
        let err = sim.compute(&mut sink, &[(0, NodeId(2))]).unwrap_err();
        assert!(matches!(
            err,
            StreamError::Rule(MppError {
                kind: MppErrorKind::MemoryExceeded { .. },
                ..
            })
        ));
    }

    #[test]
    fn unpebbled_sink_fails_terminality() {
        let dag = dag_from_edges(1, &[]);
        let mut sink = VecSink::new();
        let sim = StreamSim::new(&dag, 1, 1);
        let err = sim.finish(&mut sink).unwrap_err();
        assert!(matches!(
            err,
            StreamError::Rule(MppError {
                kind: MppErrorKind::NotTerminal(_),
                ..
            })
        ));
    }
}
