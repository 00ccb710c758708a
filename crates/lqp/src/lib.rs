//! # polygen-lqp — Local Query Processors
//!
//! Figure 1's LQP ring: "The PQP … translates the polygen query into a set
//! of local queries based on the corresponding polygen schema, and routes
//! them to the Local Query Processors. … To the PQP, each LQP behaves as a
//! local relational system."
//!
//! * [`engine`] — the [`engine::Lqp`] trait, [`engine::LocalOp`]s and
//!   capability descriptions.
//! * [`memory`] — the in-memory reference LQP with shipment counters.
//! * [`adapter`] — simulations of the paper's quirky commercial
//!   interfaces (menu-driven retrieve-only feeds) and the compensating
//!   wrapper that completes rejected operations locally.
//! * [`registry`] — name → LQP routing plus the retrieve-then-tag
//!   boundary into the polygen model.
//!
//! A helper, [`scenario_registry`], stands up the paper's three MIT
//! databases as live LQPs.

pub mod adapter;
pub mod engine;
pub mod memory;
pub mod registry;

use polygen_catalog::scenario::Scenario;
use std::sync::Arc;

/// Build a live [`registry::LqpRegistry`] serving a scenario's databases
/// through in-memory LQPs.
pub fn scenario_registry(scenario: &Scenario) -> registry::LqpRegistry {
    let reg = registry::LqpRegistry::new();
    for db in &scenario.databases {
        reg.register(Arc::new(memory::InMemoryLqp::new(
            &db.name,
            db.relations.clone(),
        )));
    }
    reg
}

/// Convenient glob import.
pub mod prelude {
    pub use crate::adapter::{CompensatingLqp, MenuDrivenLqp};
    pub use crate::engine::{Capabilities, LocalOp, Lqp, LqpError};
    pub use crate::memory::InMemoryLqp;
    pub use crate::registry::LqpRegistry;
    pub use crate::scenario_registry;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::LocalOp;

    #[test]
    fn scenario_registry_serves_all_three_databases() {
        let scenario = polygen_catalog::scenario::build();
        let reg = scenario_registry(&scenario);
        assert_eq!(reg.names(), vec!["AD", "CD", "PD"]);
        let tagged = reg
            .execute_tagged("AD", &LocalOp::retrieve("BUSINESS"), &scenario.dictionary)
            .unwrap();
        assert_eq!(tagged.len(), 9);
        // Table A3's state-normalized FIRM via the domain map.
        let firm = reg
            .execute_tagged("CD", &LocalOp::retrieve("FIRM"), &scenario.dictionary)
            .unwrap();
        use polygen_flat::value::Value;
        let hq = firm.cell("FNAME", &Value::str("Genentech"), "HQ").unwrap();
        assert_eq!(hq.datum, Value::str("CA"));
    }
}
