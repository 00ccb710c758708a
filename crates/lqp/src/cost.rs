//! Latency cost model for LQP access.
//!
//! The paper's LQPs ranged from co-located MIT databases to transatlantic
//! commercial feeds (Finsbury in England, I.P. Sharp in Canada). Nothing
//! sleeps: EXPLAIN's plan-cost estimate prices LQP work with this model,
//! and adapters accumulate simulated time as a metric. Costs are
//! microseconds.

/// Linear cost model: `fixed + per_tuple · n`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// Per-operation fixed cost (connection + parse + seek), µs.
    pub fixed_us: u64,
    /// Per-shipped-tuple marginal cost, µs.
    pub per_tuple_us: u64,
}

impl CostModel {
    /// A co-located relational database (the MIT internal systems).
    pub fn local() -> Self {
        CostModel {
            fixed_us: 500,
            per_tuple_us: 5,
        }
    }

    /// A remote commercial feed over a 1990 leased line (Finsbury,
    /// I.P. Sharp): high setup, expensive shipping.
    pub fn slow_remote() -> Self {
        CostModel {
            fixed_us: 250_000,
            per_tuple_us: 2_000,
        }
    }

    /// Estimated cost of one operation shipping `tuples` tuples.
    pub fn op_cost_us(&self, tuples: usize) -> u64 {
        self.fixed_us + self.per_tuple_us * tuples as u64
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::local()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_in_tuples() {
        let m = CostModel::local();
        assert_eq!(m.op_cost_us(0), 500);
        assert_eq!(m.op_cost_us(100), 500 + 5 * 100);
    }

    #[test]
    fn remote_dominates_local() {
        assert!(CostModel::slow_remote().op_cost_us(10) > CostModel::local().op_cost_us(10_000));
    }

    #[test]
    fn default_is_local() {
        assert_eq!(CostModel::default(), CostModel::local());
    }
}
