//! The LQP registry: the PQP's routing table (Figure 1's fan-out).
//!
//! Maps local-database names to live LQPs and performs the *tagging
//! boundary crossing*: a retrieved flat relation has its domain rules
//! applied and becomes a polygen base relation whose cells all
//! originate from that LQP's source ("when the execution location is an
//! LQP … it is also used as the originating source tag for each of the
//! cells of the polygen base relation", §III). Since every cell carries
//! the same tag, [`LqpRegistry::scan`] returns the base relation
//! *late-tagged* — the LQP's rows plus one source id —
//! and [`LqpRegistry::execute_tagged`] is its materialization.

use crate::engine::{LocalOp, Lqp, LqpError};
use polygen_catalog::dictionary::DataDictionary;
use polygen_core::base::BaseRelation;
use polygen_core::relation::PolygenRelation;
use polygen_flat::schema::Schema;
use std::collections::HashMap;
use std::sync::{Arc, PoisonError, RwLock};

/// A shared, thread-safe map of LD name → LQP.
#[derive(Default)]
pub struct LqpRegistry {
    /// Poison-tolerant: a write is one map insert, so the map is whole
    /// wherever a holder can panic.
    lqps: RwLock<HashMap<String, Arc<dyn Lqp>>>,
}

impl LqpRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register (or replace) an LQP under its own name.
    pub fn register(&self, lqp: Arc<dyn Lqp>) {
        self.lqps
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(lqp.name().to_string(), lqp);
    }

    /// Fetch an LQP by local-database name.
    pub fn get(&self, name: &str) -> Option<Arc<dyn Lqp>> {
        self.lqps
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(name)
            .cloned()
    }

    /// Registered database names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .lqps
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .keys()
            .cloned()
            .collect();
        names.sort_unstable();
        names
    }

    /// Number of registered LQPs.
    pub fn len(&self) -> usize {
        self.lqps
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Is the registry empty?
    pub fn is_empty(&self) -> bool {
        self.lqps
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .is_empty()
    }

    /// The schema [`execute_tagged`](Self::execute_tagged) will produce
    /// for `op`, computed without running it — the physical-plan lowerer
    /// resolves attribute names against this. Selection and restriction
    /// keep the base schema, projection narrows it, and the dictionary's
    /// domain rules rewrite values only, never attributes.
    pub fn planned_schema(&self, db: &str, op: &LocalOp) -> Result<Arc<Schema>, LqpError> {
        let unknown = || LqpError::UnknownRelation {
            lqp: db.to_string(),
            relation: op.relation.clone(),
        };
        let lqp = self.get(db).ok_or_else(unknown)?;
        let base = lqp.schema_of(&op.relation).ok_or_else(unknown)?;
        match &op.projection {
            None => Ok(base),
            Some(attrs) => {
                let refs: Vec<&str> = attrs.iter().map(String::as_str).collect();
                let idx = base.indices_of(&refs)?;
                Ok(Arc::new(base.project(&idx, base.name())?))
            }
        }
    }

    /// Execute a local operation at the named LQP and apply the
    /// dictionary's domain rules, returning the late-tagged base
    /// relation. With no applicable rule, a plain retrieve copies
    /// nothing — the rows are the ones the LQP holds — and a pushed-down
    /// select or restrict the LQP answers with its survivors' ordinals
    /// ([`Lqp::execute_selection`]) copies none either: the base
    /// relation carries the ordinals over the shared rows. A rule
    /// rewrites a copy of the survivors.
    pub fn scan(
        &self,
        db: &str,
        op: &LocalOp,
        dictionary: &DataDictionary,
    ) -> Result<BaseRelation, LqpError> {
        let lqp = self.get(db).ok_or_else(|| LqpError::UnknownRelation {
            lqp: db.to_string(),
            relation: op.relation.clone(),
        })?;
        let source =
            dictionary
                .registry()
                .lookup(db)
                .ok_or_else(|| LqpError::UninternedSource {
                    lqp: db.to_string(),
                })?;
        let domains = dictionary.domains();
        let (flat, survivors) = lqp.execute_selection(op)?;
        let rewrites = || {
            let mut attrs = flat.schema().attrs().iter();
            attrs.any(|a| domains.rule(db, flat.name(), a).is_some())
        };
        Ok(match survivors {
            Some(ordinals) if !rewrites() => BaseRelation::new(flat, source).gather(&ordinals),
            Some(ordinals) => {
                BaseRelation::new(domains.apply(db, &flat.gather(&ordinals))?, source)
            }
            None => BaseRelation::new(domains.apply(db, &flat)?, source),
        })
    }

    /// [`LqpRegistry::scan`] with every cell tagged — the full "retrieve
    /// then tag" path producing the paper's Tables 4 and A1–A3.
    pub fn execute_tagged(
        &self,
        db: &str,
        op: &LocalOp,
        dictionary: &DataDictionary,
    ) -> Result<PolygenRelation, LqpError> {
        Ok(self.scan(db, op, dictionary)?.materialize())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::InMemoryLqp;
    use polygen_catalog::domain::DomainRule;
    use polygen_flat::relation::Relation;
    use polygen_flat::value::Value;

    fn setup() -> (LqpRegistry, DataDictionary) {
        let firm = Relation::build("FIRM", &["FNAME", "HQ"])
            .row(&["IBM", "Armonk, NY"])
            .finish()
            .unwrap();
        let registry = LqpRegistry::new();
        registry.register(Arc::new(InMemoryLqp::new("CD", vec![firm])));
        let mut dict = DataDictionary::new();
        dict.intern_source("CD");
        dict.domains_mut()
            .set("CD", "FIRM", "HQ", DomainRule::LastCommaToken);
        (registry, dict)
    }

    #[test]
    fn execute_tagged_applies_domain_rules_and_tags() {
        let (reg, dict) = setup();
        let p = reg
            .execute_tagged("CD", &LocalOp::retrieve("FIRM"), &dict)
            .unwrap();
        let cd = dict.registry().lookup("CD").unwrap();
        let hq = p.cell("FNAME", &Value::str("IBM"), "HQ").unwrap();
        assert_eq!(hq.datum, Value::str("NY"), "domain rule applied");
        assert!(hq.origin.contains(cd));
        assert!(hq.intermediate.is_empty());
    }

    #[test]
    fn scan_shares_the_lqps_rows_and_execute_tagged_materializes_it() {
        let rel = Relation::build("T", &["A"]).row(&["x"]).finish().unwrap();
        let lqp = Arc::new(InMemoryLqp::new("S", vec![rel.clone()]));
        let registry = LqpRegistry::new();
        registry.register(Arc::clone(&lqp) as Arc<dyn Lqp>);
        let mut dict = DataDictionary::new();
        let s = dict.intern_source("S");
        let op = LocalOp::retrieve("T");
        let base = registry.scan("S", &op, &dict).unwrap();
        assert!(Arc::ptr_eq(base.flat().shared_rows(), rel.shared_rows()));
        assert_eq!(base.source(), s);
        assert_eq!(
            registry.execute_tagged("S", &op, &dict).unwrap(),
            PolygenRelation::from_flat(&rel, s)
        );
        assert_eq!(lqp.counters().ops(), 2);
        assert_eq!(lqp.counters().tuples_shipped(), 2);
    }

    #[test]
    fn uninterned_lqp_is_a_structured_error() {
        let (reg, _) = setup();
        let empty = DataDictionary::new();
        let err = reg
            .execute_tagged("CD", &LocalOp::retrieve("FIRM"), &empty)
            .unwrap_err();
        assert_eq!(err, LqpError::UninternedSource { lqp: "CD".into() });
        assert!(err.to_string().contains("not interned"));
    }

    #[test]
    fn unknown_database_errors() {
        let (reg, dict) = setup();
        assert!(matches!(
            reg.execute_tagged("XX", &LocalOp::retrieve("FIRM"), &dict),
            Err(LqpError::UnknownRelation { .. })
        ));
    }

    #[test]
    fn planned_schema_matches_execute_tagged() {
        let (reg, dict) = setup();
        let op = LocalOp::retrieve("FIRM").with_projection(&["HQ"]);
        let planned = reg.planned_schema("CD", &op).unwrap();
        let actual = reg.execute_tagged("CD", &op, &dict).unwrap();
        assert_eq!(planned.as_ref(), actual.schema().as_ref());
        assert!(reg
            .planned_schema("XX", &LocalOp::retrieve("FIRM"))
            .is_err());
        assert!(reg
            .planned_schema("CD", &LocalOp::retrieve("NOPE"))
            .is_err());
    }

    #[test]
    fn registry_introspection() {
        let (reg, _) = setup();
        assert_eq!(reg.names(), vec!["CD"]);
        assert_eq!(reg.len(), 1);
        assert!(!reg.is_empty());
        assert!(reg.get("CD").is_some());
        assert!(reg.get("AD").is_none());
    }
}
