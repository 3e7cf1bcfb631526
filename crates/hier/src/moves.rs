//! The transition rules of the three-level game as explicit moves.
//!
//! The rule set is the vanilla MPP rule set (R1-H/R2-H blue I/O, R3-H
//! compute, R4-H deletion) plus one store/load pair for the green mid
//! tier (R5-H/R6-H). There is no direct green ↔ blue rule: traffic
//! between the outer tiers stages through a red pebble, exactly as real
//! cache hierarchies move lines through the core. Because the vanilla
//! rules are retained verbatim, a zero-capacity green tier gives back
//! the two-level game move-for-move.

use rbp_core::rules::{Move, Rule};
use rbp_core::ProcId;
use rbp_dag::NodeId;

/// A pebble reference, for deletions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HierPebble {
    /// A red pebble of the given shade on the given node.
    Red(ProcId, NodeId),
    /// A green pebble on the given node.
    Green(NodeId),
    /// A blue pebble on the given node.
    Blue(NodeId),
}

/// One application of a three-level rule.
///
/// As in MPP, the `Vec<(ProcId, NodeId)>` batches are *shaded
/// selections* — injective assignments of processors to vertices — and
/// a whole batch is one rule application with one unit of cost (`g` for
/// blue I/O, `green` for green I/O, `compute` for computes) regardless
/// of its size.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum HierMove {
    /// R1-H: each selected processor copies one of its red values to
    /// slow memory (adds a blue pebble). Costs `g`.
    Store(Vec<(ProcId, NodeId)>),
    /// R2-H: each selected processor loads one blue value into its fast
    /// memory. Costs `g`.
    Load(Vec<(ProcId, NodeId)>),
    /// R5-H: each selected processor copies one of its red values to
    /// the green tier, respecting the shared capacity. Costs `green`.
    StoreGreen(Vec<(ProcId, NodeId)>),
    /// R6-H: each selected processor loads one green value into its
    /// fast memory. Costs `green`.
    LoadGreen(Vec<(ProcId, NodeId)>),
    /// R3-H: each selected processor computes one node whose inputs all
    /// hold red pebbles of its shade. Costs `compute`.
    Compute(Vec<(ProcId, NodeId)>),
    /// R4-H: remove one pebble (any level). Free.
    Remove(HierPebble),
}

impl HierMove {
    /// Whether this is a blue I/O rule (R1-H or R2-H).
    #[must_use]
    pub fn is_blue_io(&self) -> bool {
        matches!(self, HierMove::Store(_) | HierMove::Load(_))
    }

    /// Whether this is a green I/O rule (R5-H or R6-H).
    #[must_use]
    pub fn is_green_io(&self) -> bool {
        matches!(self, HierMove::StoreGreen(_) | HierMove::LoadGreen(_))
    }

    /// Size `m` of the shaded selection (1 for removals).
    #[must_use]
    pub fn batch_size(&self) -> usize {
        match self {
            HierMove::Store(b)
            | HierMove::Load(b)
            | HierMove::StoreGreen(b)
            | HierMove::LoadGreen(b)
            | HierMove::Compute(b) => b.len(),
            HierMove::Remove(_) => 1,
        }
    }

    /// Single-processor blue store.
    #[must_use]
    pub fn store1(proc: ProcId, v: NodeId) -> Self {
        HierMove::Store(vec![(proc, v)])
    }

    /// Single-processor blue load.
    #[must_use]
    pub fn load1(proc: ProcId, v: NodeId) -> Self {
        HierMove::Load(vec![(proc, v)])
    }

    /// Single-processor green store.
    #[must_use]
    pub fn green_store1(proc: ProcId, v: NodeId) -> Self {
        HierMove::StoreGreen(vec![(proc, v)])
    }

    /// Single-processor green load.
    #[must_use]
    pub fn green_load1(proc: ProcId, v: NodeId) -> Self {
        HierMove::LoadGreen(vec![(proc, v)])
    }

    /// Single-processor compute.
    #[must_use]
    pub fn compute1(proc: ProcId, v: NodeId) -> Self {
        HierMove::Compute(vec![(proc, v)])
    }
}

impl Move for HierMove {
    #[inline]
    fn with_rule<T>(&self, f: impl FnOnce(Rule, &[(ProcId, NodeId)]) -> T) -> T {
        // One call of `f`, so the kernel behind it is inlined once.
        let one;
        let (rule, sel): (Rule, &[_]) = match *self {
            HierMove::Store(ref b) => (Rule::Store, b),
            HierMove::Load(ref b) => (Rule::Load, b),
            HierMove::StoreGreen(ref b) => (Rule::StoreGreen, b),
            HierMove::LoadGreen(ref b) => (Rule::LoadGreen, b),
            HierMove::Compute(ref b) => (Rule::Compute, b),
            HierMove::Remove(pebble) => {
                let (rule, entry) = match pebble {
                    HierPebble::Red(p, v) => (Rule::RemoveRed, (p, v)),
                    HierPebble::Green(v) => (Rule::RemoveGreen, (0, v)),
                    HierPebble::Blue(v) => (Rule::RemoveBlue, (0, v)),
                };
                one = [entry];
                (rule, &one)
            }
        };
        f(rule, sel)
    }

    #[inline]
    fn from_rule(rule: Rule, sel: Vec<(ProcId, NodeId)>) -> Self {
        match rule {
            Rule::Compute => HierMove::Compute(sel),
            Rule::Load => HierMove::Load(sel),
            Rule::Store => HierMove::Store(sel),
            Rule::LoadGreen => HierMove::LoadGreen(sel),
            Rule::StoreGreen => HierMove::StoreGreen(sel),
            Rule::RemoveRed => HierMove::Remove(HierPebble::Red(sel[0].0, sel[0].1)),
            Rule::RemoveGreen => HierMove::Remove(HierPebble::Green(sel[0].1)),
            Rule::RemoveBlue => HierMove::Remove(HierPebble::Blue(sel[0].1)),
        }
    }
}

impl std::fmt::Display for HierMove {
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
            HierMove::Store(b) => write_batch(f, "store", b),
            HierMove::Load(b) => write_batch(f, "load", b),
            HierMove::StoreGreen(b) => write_batch(f, "gstore", b),
            HierMove::LoadGreen(b) => write_batch(f, "gload", b),
            HierMove::Compute(b) => write_batch(f, "compute", b),
            HierMove::Remove(HierPebble::Red(p, v)) => write!(f, "remove[p{p}:{v}]"),
            HierMove::Remove(HierPebble::Green(v)) => write!(f, "remove[green:{v}]"),
            HierMove::Remove(HierPebble::Blue(v)) => write!(f, "remove[blue:{v}]"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_and_size() {
        assert!(HierMove::store1(0, NodeId(1)).is_blue_io());
        assert!(!HierMove::store1(0, NodeId(1)).is_green_io());
        assert!(HierMove::green_load1(1, NodeId(2)).is_green_io());
        assert!(!HierMove::compute1(0, NodeId(0)).is_blue_io());
        let m = HierMove::StoreGreen(vec![(0, NodeId(1)), (1, NodeId(2))]);
        assert_eq!(m.batch_size(), 2);
        assert_eq!(
            HierMove::Remove(HierPebble::Green(NodeId(0))).batch_size(),
            1
        );
    }

    #[test]
    fn from_rule_inverts_with_rule() {
        let v = NodeId(4);
        for m in [
            HierMove::store1(0, v),
            HierMove::load1(1, v),
            HierMove::StoreGreen(vec![(0, NodeId(1)), (1, v)]),
            HierMove::green_load1(1, v),
            HierMove::compute1(0, v),
            HierMove::Remove(HierPebble::Red(1, v)),
            HierMove::Remove(HierPebble::Green(v)),
            HierMove::Remove(HierPebble::Blue(v)),
        ] {
            assert_eq!(m.with_rule(|r, s| HierMove::from_rule(r, s.to_vec())), m);
        }
    }

    #[test]
    fn display() {
        assert_eq!(
            HierMove::LoadGreen(vec![(0, NodeId(5)), (1, NodeId(6))]).to_string(),
            "gload[p0:v5, p1:v6]"
        );
        assert_eq!(
            HierMove::Remove(HierPebble::Green(NodeId(2))).to_string(),
            "remove[green:v2]"
        );
        assert_eq!(
            HierMove::green_store1(1, NodeId(3)).to_string(),
            "gstore[p1:v3]"
        );
    }
}
