//! Domain mappings — the paper's resolved "domain mismatch problem".
//!
//! §I research assumptions: "The domain mismatch problem such as unit
//! ($ vs ¥), scale (in billions vs in millions), and description
//! interpretation … has been resolved in the schema integration phase and
//! the domain mapping information is also available to the PQP."
//!
//! This module *is* that domain-mapping information: per
//! `(database, relation, attribute)` rules applied right after a local
//! relation is retrieved, before tagging. The scenario uses
//! [`DomainRule::LastCommaToken`] to map FIRM's city-qualified HQ values
//! ("Armonk, NY") onto CORPORATION's state domain ("NY") — which is why
//! Table A3 prints plain states.

use crate::ids::LocalAttrRef;
use polygen_flat::error::FlatError;
use polygen_flat::relation::Relation;
use polygen_flat::value::Value;
use std::collections::HashMap;
use std::sync::Arc;

/// One value-level conversion rule.
#[derive(Debug, Clone, PartialEq)]
pub enum DomainRule {
    /// Keep the value as is.
    Identity,
    /// "City, ST" → "ST": keep the token after the last comma. Non-string
    /// and comma-free values pass through.
    LastCommaToken,
    /// Multiply numeric values by a factor (unit / scale mismatch:
    /// billions → millions).
    Scale(f64),
    /// Explicit value translation table (description interpretation:
    /// "expensive" → "$$$"); unmatched values pass through.
    Lookup(HashMap<Value, Value>),
}

impl DomainRule {
    /// Apply the rule to one value.
    pub fn apply(&self, v: &Value) -> Value {
        match self {
            DomainRule::Identity => v.clone(),
            DomainRule::LastCommaToken => match v {
                Value::Str(s) => match s.rsplit(',').next() {
                    Some(tail) => Value::str(tail.trim()),
                    None => v.clone(),
                },
                _ => v.clone(),
            },
            DomainRule::Scale(k) => match v {
                Value::Int(i) => Value::float(*i as f64 * k),
                Value::Float(f) => Value::float(f.0 * k),
                _ => v.clone(),
            },
            DomainRule::Lookup(table) => table.get(v).cloned().unwrap_or_else(|| v.clone()),
        }
    }
}

/// The per-attribute rule table handed to the PQP.
#[derive(Debug, Clone, Default)]
pub struct DomainMap {
    rules: HashMap<LocalAttrRef, DomainRule>,
}

impl DomainMap {
    /// An empty map (every attribute Identity).
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a rule for `(db, rel, attr)`.
    pub fn set(&mut self, db: &str, rel: &str, attr: &str, rule: DomainRule) {
        self.rules.insert(LocalAttrRef::new(db, rel, attr), rule);
    }

    /// The rule for an attribute, if any. A map with no rules answers
    /// without building the lookup key (scans ask once per attribute).
    pub fn rule(&self, db: &str, rel: &str, attr: &str) -> Option<&DomainRule> {
        if self.rules.is_empty() {
            return None;
        }
        self.rules.get(&LocalAttrRef::new(db, rel, attr))
    }

    /// Number of registered rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Is the map empty?
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Apply every applicable rule to a freshly retrieved local relation.
    /// Returns the input unchanged (cheaply) when no rule matches.
    pub fn apply(&self, db: &str, rel: &Relation) -> Result<Relation, FlatError> {
        let applicable: Vec<(usize, &DomainRule)> = rel
            .schema()
            .attrs()
            .iter()
            .enumerate()
            .filter_map(|(i, a)| self.rule(db, rel.name(), a).map(|r| (i, r)))
            .collect();
        if applicable.is_empty() {
            return Ok(rel.clone());
        }
        let rows = rel
            .rows()
            .iter()
            .map(|row| {
                let mut row = row.clone();
                for (i, rule) in &applicable {
                    row[*i] = rule.apply(&row[*i]);
                }
                row
            })
            .collect();
        Relation::from_rows(Arc::clone(rel.schema()), rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polygen_flat::vals;

    #[test]
    fn last_comma_token_maps_city_state() {
        let r = DomainRule::LastCommaToken;
        assert_eq!(r.apply(&Value::str("Armonk, NY")), Value::str("NY"));
        assert_eq!(
            r.apply(&Value::str("So. San Francisco, CA")),
            Value::str("CA")
        );
        assert_eq!(r.apply(&Value::str("NY")), Value::str("NY"));
        assert_eq!(r.apply(&Value::int(5)), Value::int(5));
    }

    #[test]
    fn scale_converts_numeric() {
        let r = DomainRule::Scale(1000.0);
        assert_eq!(r.apply(&Value::float(1.7)), Value::float(1700.0));
        assert_eq!(r.apply(&Value::int(2)), Value::float(2000.0));
        assert_eq!(r.apply(&Value::str("x")), Value::str("x"));
    }

    #[test]
    fn lookup_translates_known_values() {
        let mut t = HashMap::new();
        t.insert(Value::str("expensive"), Value::str("$$$"));
        let r = DomainRule::Lookup(t);
        assert_eq!(r.apply(&Value::str("expensive")), Value::str("$$$"));
        assert_eq!(r.apply(&Value::str("cheap")), Value::str("cheap"));
    }

    #[test]
    fn map_applies_to_matching_relation_only() {
        let mut dm = DomainMap::new();
        dm.set("CD", "FIRM", "HQ", DomainRule::LastCommaToken);
        assert_eq!(dm.len(), 1);
        assert!(!dm.is_empty());
        let firm = Relation::build("FIRM", &["FNAME", "HQ"])
            .vrow(vals!["IBM", "Armonk, NY"])
            .finish()
            .unwrap();
        let mapped = dm.apply("CD", &firm).unwrap();
        assert_eq!(mapped.rows()[0][1], Value::str("NY"));
        // Same relation name in a different database is untouched.
        let other = dm.apply("PD", &firm).unwrap();
        assert_eq!(other.rows()[0][1], Value::str("Armonk, NY"));
    }

    #[test]
    fn identity_rule_and_empty_map_pass_through() {
        let dm = DomainMap::new();
        let firm = Relation::build("FIRM", &["FNAME"])
            .row(&["IBM"])
            .finish()
            .unwrap();
        let out = dm.apply("CD", &firm).unwrap();
        assert!(out.set_eq(&firm));
        assert_eq!(
            DomainRule::Identity.apply(&Value::str("x")),
            Value::str("x")
        );
    }
}
