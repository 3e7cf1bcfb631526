//! Structural analyses used by bounds and experiment reports.

use crate::{Dag, NodeId};

/// Summary statistics of a DAG, printed in experiment headers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DagStats {
    /// Number of nodes.
    pub n: usize,
    /// Number of edges.
    pub m: usize,
    /// Number of source nodes.
    pub sources: usize,
    /// Number of sink nodes.
    pub sinks: usize,
    /// Maximum in-degree Δ_in.
    pub max_in_degree: usize,
    /// Maximum out-degree.
    pub max_out_degree: usize,
    /// Number of levels (longest path + 1).
    pub depth: usize,
    /// Maximum level width.
    pub max_level_width: usize,
}

impl DagStats {
    /// Computes all statistics for `dag`.
    #[must_use]
    pub fn compute(dag: &Dag) -> Self {
        let topo = dag.topo();
        DagStats {
            n: dag.n(),
            m: dag.m(),
            sources: dag.sources().len(),
            sinks: dag.sinks().len(),
            max_in_degree: dag.max_in_degree(),
            max_out_degree: dag.max_out_degree(),
            depth: topo.depth(),
            max_level_width: topo.max_level_width(),
        }
    }
}

impl std::fmt::Display for DagStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} m={} sources={} sinks={} Δin={} Δout={} depth={} width={}",
            self.n,
            self.m,
            self.sources,
            self.sinks,
            self.max_in_degree,
            self.max_out_degree,
            self.depth,
            self.max_level_width
        )
    }
}

/// Minimum possible peak size of the live set over all topological orders,
/// computed exactly by DP over downward-closed subsets.
///
/// This equals the minimum number of red pebbles needed to pebble the DAG
/// with compute and delete moves only (no I/O, no recomputation) — the
/// one-shot black-pebbling number. Exponential in `n`; intended for
/// `n ≤ ~22`.
///
/// Returns `None` if `n` exceeds `max_n` or 30 (guard against accidental
/// blowup).
#[must_use]
pub fn min_peak_memory(dag: &Dag, max_n: usize) -> Option<usize> {
    let n = dag.n();
    if n > max_n || n > 30 {
        return None;
    }
    min_peak_order(dag, usize::MAX).map(|(peak, _)| peak)
}

/// The exact bottleneck search behind [`min_peak_memory`] and the
/// Theorem 2 zero-I/O procedure of `rbp-core`: the minimum peak over all
/// topological orders together with an order achieving it, or `None`
/// when every order peaks above `cap`.
///
/// A one-shot pebbling without I/O is fixed by its compute order: a
/// computed node holds a red pebble while it is *live* — it is a sink
/// (an output) or has an uncomputed successor — and placing a node needs
/// the live set plus the node itself. The search runs best-first on the
/// bottleneck over downward-closed computed sets and never enters a set
/// whose peak exceeds `cap`, so a tight `cap` also bounds its work.
///
/// # Panics
/// If the DAG has more than 64 nodes (one bit per node in a `u64` set).
#[must_use]
pub fn min_peak_order(dag: &Dag, cap: usize) -> Option<(usize, Vec<NodeId>)> {
    use std::cmp::Reverse;
    use std::collections::{BinaryHeap, HashMap};

    let n = dag.n();
    assert!(n <= 64, "min_peak_order: {n} nodes exceed one u64 set");
    let full: u64 = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
    let mask = |vs: &[NodeId]| vs.iter().fold(0u64, |m, v| m | (1u64 << v.index()));
    let preds: Vec<u64> = dag.nodes().map(|v| mask(dag.preds(v))).collect();
    let succs: Vec<u64> = dag.nodes().map(|v| mask(dag.succs(v))).collect();
    let live_count = |computed: u64| {
        let mut live = 0u32;
        let mut m = computed;
        while m != 0 {
            let i = m.trailing_zeros() as usize;
            m &= m - 1;
            if succs[i] == 0 || succs[i] & !computed != 0 {
                live += 1;
            }
        }
        live
    };

    // Each reached set's best peak, and the node placed last to reach it
    // at that peak (the set minus that node is its predecessor).
    let mut best: HashMap<u64, (u32, u32)> = HashMap::new();
    let mut heap: BinaryHeap<(Reverse<u32>, u64)> = BinaryHeap::new();
    best.insert(0, (0, 0));
    heap.push((Reverse(0), 0));
    while let Some((Reverse(peak), computed)) = heap.pop() {
        if best[&computed].0 != peak {
            continue;
        }
        if computed == full {
            let mut order = Vec::with_capacity(n);
            let mut cur = full;
            while cur != 0 {
                let v = best[&cur].1;
                order.push(NodeId(v));
                cur &= !(1u64 << v);
            }
            order.reverse();
            return Some((peak as usize, order));
        }
        // Placing any node: the still-live values plus the node itself.
        // Its predecessors are live (it is uncomputed), and after the
        // step the live set is no larger, so this is the step's peak.
        let next_peak = peak.max(live_count(computed) + 1);
        if next_peak as usize > cap {
            continue;
        }
        for (i, &pm) in preds.iter().enumerate() {
            let bit = 1u64 << i;
            if computed & bit != 0 || pm & !computed != 0 {
                continue;
            }
            let next = computed | bit;
            if best.get(&next).is_none_or(|&(p, _)| next_peak < p) {
                best.insert(next, (next_peak, i as u32));
                heap.push((Reverse(next_peak), next));
            }
        }
    }
    None
}

/// A maximum antichain computed exactly for small DAGs via the
/// Mirsky/greedy fallback: here we return the maximum *level* width, which
/// is a lower bound on the true maximum antichain (all nodes on one level
/// are pairwise incomparable).
#[must_use]
pub fn level_antichain(dag: &Dag) -> Vec<NodeId> {
    let topo = dag.topo();
    let levels = topo.levels();
    levels.into_iter().max_by_key(Vec::len).unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::dag_from_edges;

    fn diamond() -> Dag {
        dag_from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn stats_of_diamond() {
        let s = DagStats::compute(&diamond());
        assert_eq!(
            s,
            DagStats {
                n: 4,
                m: 4,
                sources: 1,
                sinks: 1,
                max_in_degree: 2,
                max_out_degree: 2,
                depth: 3,
                max_level_width: 2,
            }
        );
        assert!(s.to_string().contains("Δin=2"));
    }

    #[test]
    fn min_peak_memory_chain() {
        // A chain needs 2 pebbles: one on the current node, one on the next.
        let d = dag_from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        assert_eq!(min_peak_memory(&d, 30), Some(2));
    }

    #[test]
    fn min_peak_memory_diamond() {
        // Diamond: computing 3 requires 1, 2, 3 pebbled simultaneously.
        assert_eq!(min_peak_memory(&diamond(), 30), Some(3));
    }

    #[test]
    fn min_peak_memory_single_node() {
        assert_eq!(min_peak_memory(&dag_from_edges(1, &[]), 30), Some(1));
    }

    #[test]
    fn min_peak_memory_binary_inner_tree() {
        // In-tree of 7 nodes (two levels of joins): computing the second
        // join requires {first join, both its leaves, itself} pebbled at
        // once — 4 pebbles (no "sliding" in rule R3).
        let d = dag_from_edges(7, &[(0, 4), (1, 4), (2, 5), (3, 5), (4, 6), (5, 6)]);
        assert_eq!(min_peak_memory(&d, 30), Some(4));
    }

    #[test]
    fn min_peak_memory_respects_guard() {
        let d = dag_from_edges(5, &[(0, 1)]);
        assert_eq!(min_peak_memory(&d, 3), None);
    }

    #[test]
    fn level_antichain_of_two_layer() {
        let d = dag_from_edges(5, &[(0, 4), (1, 4), (2, 4), (3, 4)]);
        assert_eq!(level_antichain(&d).len(), 4);
    }

    #[test]
    fn independent_nodes_peak_is_n() {
        // k independent sinks must all be retained: peak = n.
        let d = dag_from_edges(3, &[]);
        assert_eq!(min_peak_memory(&d, 30), Some(3));
    }
}
