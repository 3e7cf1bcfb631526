//! The four SPP transition rules as explicit moves.

use rbp_dag::NodeId;

use crate::rules::{Move, Rule};
use crate::ProcId;

/// One application of an SPP rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SppMove {
    /// R1-S: place a red pebble on a node holding a blue pebble
    /// (load from slow memory). Costs `g`.
    Load(NodeId),
    /// R2-S: place a blue pebble on a node holding a red pebble
    /// (store to slow memory). Costs `g`.
    Store(NodeId),
    /// R3-S: place a red pebble on a node whose predecessors all hold red
    /// pebbles (compute). Costs `compute`.
    Compute(NodeId),
    /// R4-S: remove a red pebble. Free.
    RemoveRed(NodeId),
    /// R4-S: remove a blue pebble. Free.
    RemoveBlue(NodeId),
}

impl SppMove {
    /// Whether this move is an I/O rule application (R1 or R2).
    #[must_use]
    pub fn is_io(&self) -> bool {
        matches!(self, SppMove::Load(_) | SppMove::Store(_))
    }

    /// Whether this move is a deletion (R4).
    #[must_use]
    pub fn is_removal(&self) -> bool {
        matches!(self, SppMove::RemoveRed(_) | SppMove::RemoveBlue(_))
    }

    /// The node the move touches.
    #[must_use]
    pub fn node(&self) -> NodeId {
        match *self {
            SppMove::Load(v)
            | SppMove::Store(v)
            | SppMove::Compute(v)
            | SppMove::RemoveRed(v)
            | SppMove::RemoveBlue(v) => v,
        }
    }
}

impl Move for SppMove {
    #[inline]
    fn with_rule<T>(&self, f: impl FnOnce(Rule, &[(ProcId, NodeId)]) -> T) -> T {
        let rule = match self {
            SppMove::Load(_) => Rule::Load,
            SppMove::Store(_) => Rule::Store,
            SppMove::Compute(_) => Rule::Compute,
            SppMove::RemoveRed(_) => Rule::RemoveRed,
            SppMove::RemoveBlue(_) => Rule::RemoveBlue,
        };
        f(rule, &[(0, self.node())])
    }

    #[inline]
    fn from_rule(rule: Rule, sel: Vec<(ProcId, NodeId)>) -> Self {
        let v = sel[0].1;
        match rule {
            Rule::Compute => SppMove::Compute(v),
            Rule::Load => SppMove::Load(v),
            Rule::Store => SppMove::Store(v),
            Rule::RemoveRed => SppMove::RemoveRed(v),
            Rule::RemoveBlue => SppMove::RemoveBlue(v),
            _ => unreachable!("{rule:?} outside the single-processor game"),
        }
    }
}

impl std::fmt::Display for SppMove {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SppMove::Load(v) => write!(f, "load {v}"),
            SppMove::Store(v) => write!(f, "store {v}"),
            SppMove::Compute(v) => write!(f, "compute {v}"),
            SppMove::RemoveRed(v) => write!(f, "remove-red {v}"),
            SppMove::RemoveBlue(v) => write!(f, "remove-blue {v}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        let v = NodeId(3);
        assert!(SppMove::Load(v).is_io());
        assert!(SppMove::Store(v).is_io());
        assert!(!SppMove::Compute(v).is_io());
        assert!(SppMove::RemoveRed(v).is_removal());
        assert!(SppMove::RemoveBlue(v).is_removal());
        assert!(!SppMove::Compute(v).is_removal());
        assert_eq!(SppMove::Compute(v).node(), v);
    }

    #[test]
    fn from_rule_inverts_with_rule() {
        let v = NodeId(2);
        for m in [
            SppMove::Load(v),
            SppMove::Store(v),
            SppMove::Compute(v),
            SppMove::RemoveRed(v),
            SppMove::RemoveBlue(v),
        ] {
            assert_eq!(m.with_rule(|r, s| SppMove::from_rule(r, s.to_vec())), m);
        }
    }

    #[test]
    fn display() {
        assert_eq!(SppMove::Load(NodeId(1)).to_string(), "load v1");
        assert_eq!(SppMove::RemoveBlue(NodeId(2)).to_string(), "remove-blue v2");
    }
}
