//! Semi-join — an *extension* operator, the positive companion of
//! [`anti_join`](crate::algebra::anti_join::anti_join).
//!
//! `p1 ⋉ [x = y] p2` keeps the `p1` tuples whose `x` datum matches some
//! `y` in `p2`, without growing columns. Tag discipline follows the
//! Restrict logic: the selection of a surviving tuple was mediated by its
//! own `x` origins *and* the origins of the matching `y` cells — so both
//! are added to every kept cell's intermediate set. (A semi-join is
//! `project(join)` back onto `p1`'s attributes; that derivation adds
//! exactly these mediators, which the unit tests verify.)

use crate::algebra::join::equi_table;
use crate::error::PolygenError;
use crate::relation::PolygenRelation;
use crate::source::SourceSet;
use crate::tuple;
use std::sync::Arc;

/// `p1 ⋉ [x = y] p2` — semi-join on equality: θ-equality, as in
/// [`theta_join`](crate::algebra::theta_join), so `1` matches `1.0`.
pub fn semi_join(
    p1: &PolygenRelation,
    p2: &PolygenRelation,
    x: &str,
    y: &str,
) -> Result<PolygenRelation, PolygenError> {
    let xi = p1.schema().index_of(x)?.0;
    let yi = p2.schema().index_of(y)?.0;
    let table = equi_table(p1, xi, p2, yi);
    let mut tuples = Vec::new();
    for t in p1.tuples() {
        // Several p2 tuples may match — all of them mediated.
        let mut mediators: Option<SourceSet> = None;
        for (_, b) in table.matches(&t[xi].datum) {
            mediators
                .get_or_insert_with(|| t[xi].origin.clone())
                .union_with(&b[yi].origin);
        }
        if let Some(mediators) = mediators {
            let mut kept = t.clone();
            tuple::add_intermediate_all(&mut kept, &mediators);
            tuples.push(kept);
        }
    }
    PolygenRelation::from_tuples(Arc::clone(p1.schema()), tuples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra;
    use crate::source::SourceId;
    use polygen_flat::relation::Relation;
    use polygen_flat::value::{Cmp, Value};

    fn sid(i: u16) -> SourceId {
        SourceId(i)
    }

    fn orgs() -> PolygenRelation {
        let f = Relation::build("ORGS", &["ONAME", "IND"])
            .row(&["IBM", "High Tech"])
            .row(&["MIT", "Education"])
            .row(&["BP", "Energy"])
            .finish()
            .unwrap();
        PolygenRelation::from_flat(&f, sid(0))
    }

    fn finance() -> PolygenRelation {
        let f = Relation::build("FINANCE", &["FNAME", "PROFIT"])
            .row(&["IBM", "5.5"])
            .row(&["BP", "1.1"])
            .finish()
            .unwrap();
        PolygenRelation::from_flat(&f, sid(2))
    }

    #[test]
    fn keeps_matching_left_tuples_only() {
        let s = semi_join(&orgs(), &finance(), "ONAME", "FNAME").unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.degree(), 2, "no column growth");
        assert!(s.cell("ONAME", &Value::str("IBM"), "IND").is_some());
        assert!(s.cell("ONAME", &Value::str("MIT"), "IND").is_none());
    }

    #[test]
    fn survivors_gain_both_sides_key_origins() {
        let s = semi_join(&orgs(), &finance(), "ONAME", "FNAME").unwrap();
        for t in s.tuples() {
            for c in t {
                assert!(c.intermediate.contains(sid(0)), "own key origin");
                assert!(c.intermediate.contains(sid(2)), "matching key origin");
            }
        }
    }

    #[test]
    fn equals_projected_coalesced_join() {
        // The derivation: semi-join == join then project back onto the
        // left attributes (tags included, because the coalesced key
        // carries both origins and project keeps cells verbatim).
        let direct = semi_join(&orgs(), &finance(), "ONAME", "FNAME").unwrap();
        let joined = algebra::theta_join(&orgs(), &finance(), "ONAME", Cmp::Eq, "FNAME").unwrap();
        let projected = algebra::project(&joined, &["ONAME", "IND"]).unwrap();
        // The projected key cell lacks the right side's *origin* merge
        // (that happens in the coalesce); compare via the coalesced form.
        let coalesced =
            algebra::equi_join_coalesced(&orgs(), &finance(), "ONAME", "FNAME", "ONAME").unwrap();
        let via_chain = algebra::project(&coalesced, &["ONAME", "IND"]).unwrap();
        // Data portions always agree.
        assert!(direct.strip().set_eq(&projected.strip()));
        // Tag portions agree with the coalesced chain except the key
        // cell's origin: semi-join keeps the left origin (the datum in
        // the answer *is* the left's), the coalesced join unions both.
        for (d, v) in direct.tuples().iter().zip(via_chain.tuples()) {
            assert_eq!(d[1], v[1], "non-key cells identical");
            assert_eq!(d[0].datum, v[0].datum);
            assert_eq!(d[0].intermediate, v[0].intermediate);
            assert!(d[0].origin.is_subset(&v[0].origin));
        }
    }

    #[test]
    fn nil_keys_never_match() {
        let mut left = orgs();
        left.tuples_mut()[0][0].datum = Value::Null;
        let s = semi_join(&left, &finance(), "ONAME", "FNAME").unwrap();
        assert_eq!(s.len(), 1); // only BP
    }

    #[test]
    fn anti_and_semi_partition_the_left() {
        let semi = semi_join(&orgs(), &finance(), "ONAME", "FNAME").unwrap();
        let anti = algebra::anti_join(&orgs(), &finance(), "ONAME", "FNAME").unwrap();
        assert_eq!(semi.len() + anti.len(), orgs().len());
        let rebuilt = algebra::union(&semi, &anti).unwrap();
        assert!(rebuilt.strip().set_eq(&orgs().strip()));
    }

    #[test]
    fn int_and_float_keys_match_like_theta_join() {
        // A{K: 1, 2} against B{K2: 1.0}: `1 = 1.0` holds through θ, so
        // the semi-join keeps K = 1 and the anti-join (NOT IN) drops it.
        let keyed = |name: &str, attr: &str, keys: &[Value], src: u16| {
            let schema = Arc::new(polygen_flat::schema::Schema::new(name, &[attr]).unwrap());
            let tuples = keys
                .iter()
                .map(|k| vec![crate::cell::Cell::retrieved(k.clone(), sid(src))])
                .collect();
            PolygenRelation::from_tuples(schema, tuples).unwrap()
        };
        let a = keyed("A", "K", &[Value::int(1), Value::int(2)], 0);
        let b = keyed("B", "K2", &[Value::float(1.0)], 1);
        let joined = algebra::theta_join(&a, &b, "K", Cmp::Eq, "K2").unwrap();
        assert_eq!(joined.len(), 1);
        let semi = semi_join(&a, &b, "K", "K2").unwrap();
        assert_eq!(semi.len(), 1);
        assert_eq!(semi.tuples()[0][0].datum, Value::int(1));
        assert!(semi.tuples()[0][0].intermediate.contains(sid(1)));
        let anti = algebra::anti_join(&a, &b, "K", "K2").unwrap();
        assert_eq!(anti.len(), 1);
        assert_eq!(anti.tuples()[0][0].datum, Value::int(2));
    }

    #[test]
    fn unknown_attrs_error() {
        assert!(semi_join(&orgs(), &finance(), "NOPE", "FNAME").is_err());
        assert!(semi_join(&orgs(), &finance(), "ONAME", "NOPE").is_err());
    }
}
