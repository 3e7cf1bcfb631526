//! Cost models and cost accounting for pebbling strategies.
//!
//! The paper assigns cost `g` to every I/O rule application (R1/R2),
//! cost 1 to every compute rule application (R3), and cost 0 to deletions
//! (R4). Classical SPP instead counts only I/O; "SPP with computation
//! costs" charges a small ε per compute. All three are instances of
//! [`CostModel`].

use crate::rules::Rule;

/// Per-rule costs of a pebbling game.
///
/// `g` is the cost of one I/O step (a whole R1-M/R2-M application,
/// regardless of how many pebbles it moves); `compute` is the cost of one
/// compute step (R3). Deletions are always free.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CostModel {
    /// Cost of one I/O rule application.
    pub g: u64,
    /// Cost of one compute rule application.
    pub compute: u64,
}

impl CostModel {
    /// The MPP cost function of the paper: I/O costs `g`, compute costs 1.
    #[must_use]
    pub fn mpp(g: u64) -> Self {
        CostModel { g, compute: 1 }
    }

    /// Classical SPP: only I/O counts, computation is free.
    #[must_use]
    pub fn spp_io_only(g: u64) -> Self {
        CostModel { g, compute: 0 }
    }

    /// SPP with computation costs (the APX-hardness setting of Lemma 11).
    #[must_use]
    pub fn spp_with_compute(g: u64, compute: u64) -> Self {
        CostModel { g, compute }
    }
}

impl Default for CostModel {
    /// MPP with `g = 1`.
    fn default() -> Self {
        CostModel::mpp(1)
    }
}

/// Tally of rule applications of a pebbling strategy, kept separately so
/// experiments can report I/O and compute contributions individually.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Cost {
    /// Number of R1 applications (fast → slow memory; "stores").
    pub stores: u64,
    /// Number of R2 applications (slow → fast memory; "loads").
    pub loads: u64,
    /// Number of R3 applications ("computes").
    pub computes: u64,
}

impl Cost {
    /// Zero cost.
    #[must_use]
    pub fn zero() -> Self {
        Cost::default()
    }

    /// Number of I/O rule applications (stores + loads).
    #[must_use]
    pub fn io_steps(&self) -> u64 {
        self.stores + self.loads
    }

    /// Counts one application of `rule`. Removals are free, and the
    /// green rules belong to the three-level game's own tally.
    #[inline]
    pub fn tally(&mut self, rule: Rule) {
        match rule {
            Rule::Store => self.stores += 1,
            Rule::Load => self.loads += 1,
            Rule::Compute => self.computes += 1,
            _ => {}
        }
    }

    /// Total cost under `model`: `g·(stores + loads) + compute·computes`.
    #[must_use]
    pub fn total(&self, model: CostModel) -> u64 {
        model.g * self.io_steps() + model.compute * self.computes
    }

    /// Surplus cost (Definition 1): `total − ceil(n / k)`.
    ///
    /// `n / k` (rounded up to the next integer, since step counts are
    /// integral) is the unavoidable compute cost of an `n`-node DAG on `k`
    /// processors; the surplus isolates I/O, imbalance, and recomputation.
    #[must_use]
    pub fn surplus(&self, model: CostModel, n: usize, k: usize) -> u64 {
        let unavoidable = (n as u64).div_ceil(k as u64) * model.compute;
        self.total(model).saturating_sub(unavoidable)
    }

    /// Adds another tally.
    pub fn add(&mut self, other: Cost) {
        self.stores += other.stores;
        self.loads += other.loads;
        self.computes += other.computes;
    }
}

impl std::ops::Add for Cost {
    type Output = Cost;
    fn add(self, rhs: Cost) -> Cost {
        Cost {
            stores: self.stores + rhs.stores,
            loads: self.loads + rhs.loads,
            computes: self.computes + rhs.computes,
        }
    }
}

impl std::fmt::Display for Cost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "stores={} loads={} computes={}",
            self.stores, self.loads, self.computes
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn models() {
        assert_eq!(CostModel::mpp(3), CostModel { g: 3, compute: 1 });
        assert_eq!(CostModel::spp_io_only(5), CostModel { g: 5, compute: 0 });
        assert_eq!(
            CostModel::spp_with_compute(5, 2),
            CostModel { g: 5, compute: 2 }
        );
        assert_eq!(CostModel::default(), CostModel::mpp(1));
    }

    #[test]
    fn totals() {
        let c = Cost {
            stores: 2,
            loads: 3,
            computes: 10,
        };
        assert_eq!(c.io_steps(), 5);
        assert_eq!(c.total(CostModel::mpp(4)), 4 * 5 + 10);
        assert_eq!(c.total(CostModel::spp_io_only(4)), 20);
    }

    #[test]
    fn surplus_subtracts_unavoidable_work() {
        let c = Cost {
            stores: 1,
            loads: 1,
            computes: 6,
        };
        // n=10 on k=2: unavoidable = ceil(10/2) = 5 computes.
        assert_eq!(c.surplus(CostModel::mpp(2), 10, 2), 2 * 2 + 6 - 5);
        // n=10 on k=3: ceil = 4.
        assert_eq!(c.surplus(CostModel::mpp(2), 10, 3), 2 * 2 + 6 - 4);
        // Surplus saturates at zero rather than underflowing.
        let tiny = Cost {
            stores: 0,
            loads: 0,
            computes: 1,
        };
        assert_eq!(tiny.surplus(CostModel::mpp(1), 100, 1), 0);
    }

    #[test]
    fn addition() {
        let a = Cost {
            stores: 1,
            loads: 2,
            computes: 3,
        };
        let b = Cost {
            stores: 10,
            loads: 20,
            computes: 30,
        };
        assert_eq!(
            a + b,
            Cost {
                stores: 11,
                loads: 22,
                computes: 33,
            }
        );
        let mut m = a;
        m.add(b);
        assert_eq!(m, a + b);
    }

    #[test]
    fn display_is_readable() {
        let c = Cost {
            stores: 1,
            loads: 2,
            computes: 3,
        };
        assert_eq!(c.to_string(), "stores=1 loads=2 computes=3");
    }
}
