//! The four MPP transition rules as explicit moves.

use rbp_dag::NodeId;

use crate::rules::{Move, Rule};

/// Index of a processor, `0 ≤ proc < k`.
pub type ProcId = usize;

/// A pebble reference, for deletions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Pebble {
    /// A red pebble of the given shade on the given node.
    Red(ProcId, NodeId),
    /// A blue pebble on the given node.
    Blue(NodeId),
}

/// One application of an MPP rule.
///
/// The `Vec<(ProcId, NodeId)>` in the parallel rules is the *shaded
/// selection*: an assignment of distinct processors to vertices. A whole
/// batch is one rule application and incurs one unit of cost (`g` for
/// [`MppMove::Store`]/[`MppMove::Load`], `compute` for
/// [`MppMove::Compute`]) regardless of its size `1 ≤ m ≤ k`.
///
/// The four rules on a two-node chain `v0 → v1`, played through the
/// rule-enforcing simulator (two processors, `r = 2`, `g = 1`):
///
/// ```
/// use rbp_core::rbp_dag::{generators, NodeId};
/// use rbp_core::{MppInstance, MppSimulator};
///
/// let dag = generators::chain(2);
/// let inst = MppInstance::new(&dag, 2, 2, 1);
/// let mut sim = MppSimulator::new(inst);
/// sim.compute(vec![(0, NodeId(0))]).unwrap(); // R3-M: source has no inputs
/// sim.store(vec![(0, NodeId(0))]).unwrap();   // R1-M: red → blue copy
/// sim.load(vec![(1, NodeId(0))]).unwrap();    // R2-M: blue → p1's red
/// sim.compute(vec![(1, NodeId(1))]).unwrap(); // R3-M: inputs red on p1
/// sim.remove_red(0, NodeId(0)).unwrap();      // R4-M: deletion is free
/// let run = sim.finish().unwrap();
/// assert_eq!(run.cost.computes, 2);
/// assert_eq!(run.cost.stores + run.cost.loads, 2); // I/O cost = 2·g
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum MppMove {
    /// R1-M: each selected processor copies one of its red values to slow
    /// memory (adds a blue pebble). Costs `g`.
    Store(Vec<(ProcId, NodeId)>),
    /// R2-M: each selected processor loads one blue value into its fast
    /// memory (adds a red pebble of its shade). Vertices in one batch are
    /// distinct, per the set notation in the rule. Costs `g`.
    Load(Vec<(ProcId, NodeId)>),
    /// R3-M: each selected processor computes one node whose inputs all
    /// hold red pebbles of that processor's shade. Costs `compute`.
    Compute(Vec<(ProcId, NodeId)>),
    /// R4-M: remove one pebble. Free.
    Remove(Pebble),
}

impl MppMove {
    /// Whether this is an I/O rule (R1-M or R2-M).
    #[must_use]
    pub fn is_io(&self) -> bool {
        matches!(self, MppMove::Store(_) | MppMove::Load(_))
    }

    /// Size `m` of the shaded selection (1 for removals).
    #[must_use]
    pub fn batch_size(&self) -> usize {
        match self {
            MppMove::Store(b) | MppMove::Load(b) | MppMove::Compute(b) => b.len(),
            MppMove::Remove(_) => 1,
        }
    }

    /// Single-processor convenience constructors.
    #[must_use]
    pub fn store1(proc: ProcId, v: NodeId) -> Self {
        MppMove::Store(vec![(proc, v)])
    }

    /// Single-processor load.
    #[must_use]
    pub fn load1(proc: ProcId, v: NodeId) -> Self {
        MppMove::Load(vec![(proc, v)])
    }

    /// Single-processor compute.
    #[must_use]
    pub fn compute1(proc: ProcId, v: NodeId) -> Self {
        MppMove::Compute(vec![(proc, v)])
    }
}

impl Move for MppMove {
    #[inline]
    fn with_rule<T>(&self, f: impl FnOnce(Rule, &[(ProcId, NodeId)]) -> T) -> T {
        // One call of `f`, so the kernel behind it is inlined once.
        let one;
        let (rule, sel): (Rule, &[_]) = match *self {
            MppMove::Store(ref b) => (Rule::Store, b),
            MppMove::Load(ref b) => (Rule::Load, b),
            MppMove::Compute(ref b) => (Rule::Compute, b),
            MppMove::Remove(Pebble::Red(p, v)) => {
                one = [(p, v)];
                (Rule::RemoveRed, &one)
            }
            MppMove::Remove(Pebble::Blue(v)) => {
                one = [(0, v)];
                (Rule::RemoveBlue, &one)
            }
        };
        f(rule, sel)
    }

    #[inline]
    fn from_rule(rule: Rule, sel: Vec<(ProcId, NodeId)>) -> Self {
        match rule {
            Rule::Compute => MppMove::Compute(sel),
            Rule::Load => MppMove::Load(sel),
            Rule::Store => MppMove::Store(sel),
            Rule::RemoveRed => MppMove::Remove(Pebble::Red(sel[0].0, sel[0].1)),
            Rule::RemoveBlue => MppMove::Remove(Pebble::Blue(sel[0].1)),
            _ => unreachable!("{rule:?} outside the two-level game"),
        }
    }
}

impl std::fmt::Display for MppMove {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let write_batch = |f: &mut std::fmt::Formatter<'_>, name: &str, b: &[(ProcId, NodeId)]| {
            write!(f, "{name}[")?;
            for (i, (p, v)) in b.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "p{p}:{v}")?;
            }
            write!(f, "]")
        };
        match self {
            MppMove::Store(b) => write_batch(f, "store", b),
            MppMove::Load(b) => write_batch(f, "load", b),
            MppMove::Compute(b) => write_batch(f, "compute", b),
            MppMove::Remove(Pebble::Red(p, v)) => write!(f, "remove[p{p}:{v}]"),
            MppMove::Remove(Pebble::Blue(v)) => write!(f, "remove[blue:{v}]"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_and_size() {
        let m = MppMove::Compute(vec![(0, NodeId(1)), (1, NodeId(2))]);
        assert!(!m.is_io());
        assert_eq!(m.batch_size(), 2);
        assert!(MppMove::store1(0, NodeId(3)).is_io());
        assert!(MppMove::load1(1, NodeId(3)).is_io());
        assert_eq!(MppMove::Remove(Pebble::Blue(NodeId(0))).batch_size(), 1);
    }

    #[test]
    fn from_rule_inverts_with_rule() {
        for m in [
            MppMove::Store(vec![(0, NodeId(1)), (1, NodeId(2))]),
            MppMove::load1(1, NodeId(3)),
            MppMove::compute1(0, NodeId(4)),
            MppMove::Remove(Pebble::Red(1, NodeId(5))),
            MppMove::Remove(Pebble::Blue(NodeId(6))),
        ] {
            assert_eq!(m.with_rule(|r, s| MppMove::from_rule(r, s.to_vec())), m);
        }
    }

    #[test]
    fn display() {
        let m = MppMove::Load(vec![(0, NodeId(5)), (1, NodeId(6))]);
        assert_eq!(m.to_string(), "load[p0:v5, p1:v6]");
        assert_eq!(
            MppMove::Remove(Pebble::Red(1, NodeId(2))).to_string(),
            "remove[p1:v2]"
        );
    }
}
